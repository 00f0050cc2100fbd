"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 benchmarks/e2e/traced_serve.py --spans-out SPANS.json -- [serve args...]

The daemon is the stock CLI (``repro.harness.main(["serve", ...])``); no
``repro.obs`` tracer, metrics registry or ledger is installed, so every
fast path stays engaged.  When the daemon drains, the recorded spans and
the list of targets that could not be wrapped are written to
``SPANS.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(E2E_DIR), str(E2E_DIR.parents[1] / "src")]

import spans  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    import repro.harness
    import repro.serve  # noqa: F401  (bind the serve layers before wrapping)

    recorder = spans.SpanRecorder()
    uninstall, absent = spans.install(recorder)
    try:
        code = repro.harness.main(["serve", *serve_args])
    finally:
        uninstall()
        args.spans_out.write_text(json.dumps({
            "absent": absent,
            "spans": recorder.spans,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
