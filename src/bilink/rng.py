"""Deterministic seed derivation.

Every stochastic step in a run draws from a generator derived from the
single root seed plus string tags, so any view, mask or sample can be
replayed in isolation.
"""

import zlib

import numpy as np

from .errors import ValidationError


def child_seed(root: int, *tags) -> np.random.SeedSequence:
    """Derive a SeedSequence from a root seed and a path of tags.

    Tags may be strings or integers; strings are hashed with crc32 so the
    derivation is stable across processes and platforms.
    """
    entropy = [int(root) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            entropy.append(zlib.crc32(tag.encode("utf-8")))
        else:
            entropy.append(int(tag) & 0xFFFFFFFF)
    return np.random.SeedSequence(entropy)


def check_seed(seed: int, name: str = "seed") -> None:
    """Reject a root seed outside [0, 2**32): `child_seed` keeps its low 32
    bits, so such a seed would make the same draws as one inside."""
    if not 0 <= seed < 2 ** 32:
        raise ValidationError(f"{name} must be in [0, 2**32), got {seed}")


def rng_for(root: int, *tags) -> np.random.Generator:
    """A fresh PCG64 generator for the (root, *tags) derivation path."""
    return np.random.default_rng(child_seed(root, *tags))


def seed_int(root: int, *tags) -> int:
    """A 32-bit int seed for the (root, *tags) derivation path, for callees
    that take a plain integer seed."""
    return int(child_seed(root, *tags).generate_state(1)[0])


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Accept either a plain int seed or an existing SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)
