"""Counter-based random numbers.

Every draw is a pure function of its integer coordinates: a SplitMix64-style
finalizer hashes the coordinate tuple to 64 bits, the top 53 bits give a
uniform in the open interval (0, 1), and the inverse normal CDF turns
uniforms into Gaussians.  There is no generator state, so draws are
reproducible regardless of call order, batching, or thread count.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Domain tags keep independent sampling purposes on disjoint streams even
# when they share a user-facing seed.
DOMAIN_WIENER = 0x5EED_0001
DOMAIN_STATE = 0x5EED_0002
DOMAIN_PARAM = 0x5EED_0003


def _as_u64(value) -> np.ndarray:
    if isinstance(value, (int, np.integer)):
        return np.uint64(int(value) & _MASK64)
    return np.asarray(value).astype(np.uint64, copy=False)


def _splitmix(z: np.ndarray) -> np.ndarray:
    # Mixes z in place, so it must be a temporary.
    z += _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def hash_u64(*coords, prefix=0) -> np.ndarray:
    """Hash integer coordinates to uint64, elementwise over broadcast shapes.

    The fold over the coordinates starts from `prefix`, so
    hash_u64(*b, prefix=hash_u64(*a)) equals hash_u64(*a, *b): a prefix shared
    by many draws is hashed once.
    """
    with np.errstate(over="ignore"):
        h = _as_u64(prefix)
        for c in coords:
            h = _splitmix(h ^ _as_u64(c))
    return h


def uniforms(*coords, prefix=0) -> np.ndarray:
    """Uniform doubles in (0, 1), one per broadcast coordinate tuple."""
    u = (hash_u64(*coords, prefix=prefix) >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def normals(*coords, prefix=0) -> np.ndarray:
    """Standard normal deviates via the inverse CDF of counter-based uniforms."""
    return ndtri(uniforms(*coords, prefix=prefix))
