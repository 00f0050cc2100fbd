"""Deterministic randomness plumbing.

Every randomized component in the library accepts a ``seed`` argument that may
be ``None`` (fresh entropy), an integer, or an existing
:class:`numpy.random.Generator`.  All randomness flows through NumPy
generators so experiments are replayable bit-for-bit and independent parallel
streams can be derived with :func:`spawn_children`.

The one exception is the serve daemon's admission draw
(:mod:`repro.serve.admission`): it seeds a stdlib :class:`random.Random`
from the BLAKE2b digest of ``(seed, "admission", round)`` so the daemon's
front end never imports NumPy.  It schedules requests only; no result
depends on it.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Union

import numpy as np

__all__ = [
    "as_generator",
    "spawn_children",
    "derive_seed_sequence",
    "derive_generator",
    "describe_seed",
    "SeedLike",
]

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

#: spawn-key words per path component (64 bits of separation each)
_WORDS_PER_PART = 2


def _path_words(part: "int | str") -> tuple:
    """Stable uint32 spawn-key words for one derivation-path component.

    Components are type-tagged before hashing so ``5`` and ``"5"`` derive
    different streams, and each component hashes independently so
    ``("ab", "c")`` never collides with ``("a", "bc")``.  blake2b keeps the
    mapping stable across processes and Python versions (unlike ``hash``).
    """
    if isinstance(part, (bool, float)):
        raise TypeError(f"seed-path components must be int or str, got {part!r}")
    tag = f"i:{part}" if isinstance(part, (int, np.integer)) else f"s:{part}"
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=4 * _WORDS_PER_PART).digest()
    return tuple(
        int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(_WORDS_PER_PART)
    )


def derive_seed_sequence(root: SeedLike, *path: "int | str") -> np.random.SeedSequence:
    """Derive the :class:`~numpy.random.SeedSequence` at a named point of a
    deterministic derivation tree.

    ``path`` components (experiment name, grid-point key, trial index, ...)
    are hashed into the sequence's ``spawn_key``, so

    * the same ``(root, path)`` always yields the same stream — any single
      trial of a sweep is reproducible in isolation, in any process;
    * different paths yield statistically independent streams — unlike the
      ad-hoc ``seed + t`` arithmetic this replaces, two experiments sharing
      a root seed can never collide on a trial stream;
    * deriving from an already-derived sequence extends its path (the tree
      nests).

    A ``root`` of ``None`` draws fresh entropy (still giving independent
    children); a :class:`~numpy.random.Generator` root is rejected because
    its stream position is not a stable derivation base.
    """
    if isinstance(root, np.random.Generator):
        raise TypeError(
            "cannot derive a SeedSequence from a Generator (its stream "
            "position is not a stable base); pass the original int seed "
            "or SeedSequence instead"
        )
    if isinstance(root, np.random.SeedSequence):
        entropy, base_key = root.entropy, tuple(root.spawn_key)
    else:
        entropy, base_key = root, ()
    words: tuple = ()
    for part in path:
        words += _path_words(part)
    return np.random.SeedSequence(entropy=entropy, spawn_key=base_key + words)


def derive_generator(root: SeedLike, *path: "int | str") -> np.random.Generator:
    """:func:`derive_seed_sequence` composed with ``default_rng``."""
    return np.random.default_rng(derive_seed_sequence(root, *path))


def describe_seed(seq: np.random.SeedSequence) -> str:
    """Human-readable identity of a derived sequence (for error messages:
    paste into ``SeedSequence(entropy, spawn_key=...)`` to replay)."""
    return f"SeedSequence(entropy={seq.entropy!r}, spawn_key={tuple(seq.spawn_key)!r})"


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce any seed-like value into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (shared state), which
    lets a caller thread one stream through several components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_children(seed: SeedLike, n: int) -> Sequence[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Used when an experiment fans out over trials/processors and each stream
    must be independent yet reproducible from a single root seed.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} child generators")
    if isinstance(seed, np.random.Generator):
        # Spawn via the generator's own bit generator seed sequence when
        # available; fall back to drawing child seeds from the stream.
        seed_seq = getattr(seed.bit_generator, "seed_seq", None)
        if seed_seq is not None:
            return [np.random.default_rng(s) for s in seed_seq.spawn(n)]
        child_seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]
