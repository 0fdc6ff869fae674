"""Counter-based random numbers.

Every draw is a pure function of its integer coordinates: a SplitMix64-style
finalizer hashes the coordinate tuple to 64 bits, the top 53 bits give a
uniform in the open interval (0, 1), and the inverse normal CDF turns
uniforms into Gaussians.  There is no generator state, so draws are
reproducible regardless of call order, batching, or thread count.  scipy's
inverse normal CDF is imported on the first normal draw, so a process that
draws none never pays for it.  With a workspace `ws` (see `scratch`), a draw
writes into reused arrays.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Domain tags keep independent sampling purposes on disjoint streams even
# when they share a user-facing seed.
DOMAIN_WIENER = 0x5EED_0001
DOMAIN_STATE = 0x5EED_0002
DOMAIN_PARAM = 0x5EED_0003


@functools.cache
def load_ndtri():
    """scipy's inverse normal CDF, imported on the first call."""
    from scipy.special import ndtri
    return ndtri


def scratch(ws, name: str, shape, dtype=complex):
    """The `out=` array of `name` and `shape` in the workspace dict `ws`, made on
    first use and reused by every later call; None, so numpy allocates, without `ws`."""
    if ws is not None and (name, shape) not in ws:
        ws[name, shape] = np.empty(shape, dtype)
    return None if ws is None else ws[name, shape]


def _as_u64(value) -> np.ndarray:
    if isinstance(value, (int, np.integer)):
        return np.uint64(int(value) & _MASK64)
    return np.asarray(value).astype(np.uint64, copy=False)


def _splitmix(z: np.ndarray, shifted=None) -> np.ndarray:
    # Mixes z in place, so it must be a temporary.  An array `shifted` of z's shape takes
    # the shifts; without one, the operators keep the fast arithmetic of numpy scalars.
    z += _GAMMA
    z ^= z >> np.uint64(30) if shifted is None else np.right_shift(z, np.uint64(30), out=shifted)
    z *= _MIX1
    z ^= z >> np.uint64(27) if shifted is None else np.right_shift(z, np.uint64(27), out=shifted)
    z *= _MIX2
    z ^= z >> np.uint64(31) if shifted is None else np.right_shift(z, np.uint64(31), out=shifted)
    return z


def hash_u64(*coords, prefix=0, ws=None) -> np.ndarray:
    """Hash integer coordinates to uint64, elementwise over broadcast shapes.

    The fold over the coordinates starts from `prefix`, so
    hash_u64(*b, prefix=hash_u64(*a)) equals hash_u64(*a, *b): a prefix shared
    by many draws is hashed once.
    """
    with np.errstate(over="ignore"):
        h = _as_u64(prefix)
        for c in map(_as_u64, coords):
            if ws is None:
                h = _splitmix(h ^ c)
            else:
                shape = np.broadcast(h, c).shape
                h = np.bitwise_xor(h, c, out=scratch(ws, "hash", shape, np.uint64))
                h = _splitmix(h, scratch(ws, "shift", shape, np.uint64))
    return h


def uniforms(*coords, prefix=0, ws=None) -> np.ndarray:
    """Uniform doubles in (0, 1), one per broadcast coordinate tuple."""
    h = hash_u64(*coords, prefix=prefix, ws=ws)
    bits = np.right_shift(h, np.uint64(11), out=scratch(ws, "shift", np.shape(h), np.uint64))
    u = np.add(bits, 0.5, out=scratch(ws, "uniform", np.shape(h), np.float64))
    u *= 2.0**-53
    return u


def normals(*coords, prefix=0, ws=None) -> np.ndarray:
    """Standard normal deviates via the inverse CDF of counter-based uniforms."""
    u = uniforms(*coords, prefix=prefix, ws=ws)
    return load_ndtri()(u, out=None if ws is None else u)
