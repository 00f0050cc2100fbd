"""Run manifests: the provenance record that makes a number replayable.

Every ``--trace``/``--metrics`` CLI run writes a small JSON manifest next
to its artifacts (``<artifact>.manifest.json``) recording the command, its
parameters, the effective seed expression, the git SHA of the tree that
produced it, the penalty family in force, and the artifact paths.  A BENCH
number plus its manifest is a complete recipe: check out the SHA, rerun
the command with the recorded seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Any, Dict, Optional

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "current_git_sha",
    "build_manifest",
    "manifest_path",
    "write_manifest",
]

#: 1 = the original record; 2 drops the memo-cache ``cache`` block
MANIFEST_SCHEMA_VERSION = 2


#: the directory of the ``repro`` package — its checkout's SHA is the
#: one that produced a result, wherever the process was started from
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def current_git_sha(cwd: Optional[str] = None) -> str:
    """HEAD SHA of the checkout at ``cwd`` (default: the one the ``repro``
    package is imported from), or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_PACKAGE_DIR if cwd is None else cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


def build_manifest(
    *,
    command: str,
    params: Optional[Dict[str, Any]] = None,
    seed: Any = None,
    jobs: Optional[int] = None,
    penalty: Optional[str] = None,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest dict.

    ``seed`` may be an int or a ``describe_seed`` expression string.
    """
    manifest: Dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "git_sha": current_git_sha(),
        "command": command,
        "params": _json_safe(params or {}),
        "seed": _json_safe(seed),
        "jobs": jobs,
        "penalty_family": penalty,
        "trace_path": trace_path,
        "metrics_path": metrics_path,
    }
    if extra:
        manifest.update(_json_safe(extra))
    return manifest


def manifest_path(artifact_path: str) -> str:
    """Where the manifest for an artifact lives."""
    return artifact_path + ".manifest.json"


def write_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """Write a :func:`build_manifest` dict to ``path`` as JSON."""
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=repr)
        fh.write("\n")
