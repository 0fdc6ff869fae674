"""Small dense complex linear algebra for qubit-scale operators.

Pauli matrices, the input checks every module shares, Bloch-vector
conversions, the Hermitian eigensolver, the step-count resolver and report
grid of every time grid, and Haar-random states from counter-based Gaussians.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .errors import DimensionError, ValidationError

_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def pauli(k: int) -> np.ndarray:
    """Return the 2x2 Pauli matrix sigma_k for k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ValidationError(f"pauli index must be 1, 2 or 3, got {k!r}")
    return _SIGMA[k - 1].copy()


def max_abs(a) -> float:
    """Largest entrywise magnitude."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def require_hermitian(a, tol: float = 1e-12, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {a.shape}")
    dev = max_abs(a - a.conj().T)
    if dev > tol:
        raise ValidationError(f"{what} is not Hermitian (max |A - A^dag| = {dev:.3e})")
    return a


def require_normalized(psi, tol: float = 1e-8, what: str = "state") -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    norm2 = np.einsum("...i,...i->...", psi.conj(), psi).real
    dev = max_abs(norm2 - 1.0)
    if dev > tol:
        raise ValidationError(f"{what} is not normalized (max ||psi||^2 - 1| = {dev:.3e})")
    return psi


def require_isometry(u, what: str = "noise matrix") -> np.ndarray:
    """An N x n matrix with N >= n >= 1 and u^dag u = I_n, as a complex array."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] < 1:
        raise DimensionError(f"{what} must be N x n with n >= 1, got shape {u.shape}")
    if u.shape[0] < u.shape[1]:
        raise ValidationError(f"{what} needs N >= n rows, got shape {u.shape}")
    dev = max_abs(u.conj().T @ u - np.eye(u.shape[1]))
    if dev > 1e-10:
        raise ValidationError(f"{what} is not an isometry (max |u^dag u - I| = {dev:.3e})")
    return u


def require_rates(rates) -> np.ndarray:
    """The finite rates (c_1, c_2, c_3) of the sigma_1, sigma_2, sigma_3 channels, as a float array."""
    c = np.asarray(rates, dtype=float)
    if c.shape != (3,):
        raise DimensionError(f"rate vector must have shape (3,), got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValidationError(f"rates must be finite, got {c}")
    return c


def bloch_from_state(psi) -> np.ndarray:
    """Bloch vector n_k = <psi|sigma_k|psi> of a normalized qubit state.

    Accepts a single state of shape (2,) or a batch of shape (..., 2); the
    result has shape (..., 3).
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != 2:
        raise DimensionError(f"Bloch conversion requires qubit states, got dim {psi.shape[-1]}")
    psi = require_normalized(psi)
    return np.stack(_bloch_components(psi[..., 0], psi[..., 1]), axis=-1)


def _bloch_components(a, b):
    # Unchecked (n_1, n_2, n_3) from the components a, b: the stepping loop
    # calls it on renormalized states.
    cross = a.conj() * b
    return 2.0 * cross.real, 2.0 * cross.imag, (a.conj() * a - b.conj() * b).real


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vector n_k = tr(rho sigma_k) of qubit density matrices (..., 2, 2) -> (..., 3)."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise DimensionError(f"Bloch conversion requires 2 x 2 density matrices, got shape {rho.shape}")
    off = rho[..., 1, 0]
    return np.stack([2.0 * off.real, 2.0 * off.imag, (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


def state_from_bloch(n) -> np.ndarray:
    """Pure qubit state (cos(theta/2), e^{i phi} sin(theta/2)) for a unit Bloch vector."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise DimensionError(f"Bloch vector must have shape (3,), got {n.shape}")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > 1e-8:
        raise ValidationError(f"Bloch vector of a pure state must be unit length, got ||n|| = {norm}")
    theta = np.arccos(np.clip(n[2] / norm, -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex)


def hermitian_eigen(a):
    """Eigendecomposition of a complex Hermitian matrix (LAPACK through numpy's eigh).

    Returns (w, v) with eigenvalues w ascending and unitary v satisfying
    a @ v = v @ diag(w).
    """
    return np.linalg.eigh(require_hermitian(a, tol=1e-12, what="eigensolver input"))


# Ceiling on the steps of one time grid: a single trajectory's states and
# Wiener increments are O(steps), and a huge finite horizon must be refused
# before they are allocated.
MAX_STEPS = 10**8


def resolve_steps(t_final: float, dt: float) -> int:
    """Number of dt steps spanning [0, t_final]; t_final must be a whole multiple of dt."""
    if not t_final >= 0:  # also refuses nan
        raise ValidationError(f"final time must be a number >= 0, got {t_final}")
    if not dt > 0:
        raise ValidationError(f"dt must be a positive number, got {dt}")
    if not t_final / dt < MAX_STEPS + 0.5:
        raise ValidationError(f"time {t_final} needs more than {MAX_STEPS} steps of dt = {dt}")
    steps = int(round(t_final / dt))
    if not abs(steps * dt - t_final) <= 1e-9 * max(1.0, t_final):  # also refuses dt = inf
        raise ValidationError(f"time {t_final} is not an integer multiple of dt = {dt}")
    return steps


def report_indices(steps: int, grid_points: int) -> np.ndarray:
    """Step indices of the report grid: `grid_points` evenly spaced points in
    (0, steps], or just [0] for an empty evolution."""
    if steps == 0:
        return np.array([0])
    count = min(max(1, grid_points), steps)
    idx = np.round(steps * np.arange(1, count + 1) / count).astype(int)
    return idx[np.diff(idx, prepend=-1) > 0]  # idx never decreases: keep the first of each run of repeats


def random_state(seed: int, d: int, index=0) -> np.ndarray:
    """Haar-random state(s) of dimension d from the counter-based stream.

    `index` may be an integer or an integer array; the result has shape
    (..., d) with one independent state per index.  The same (seed, d, index)
    always yields the same state, regardless of batching or call order.
    """
    if d < 2:
        raise DimensionError(f"state dimension must be >= 2, got {d}")
    idx = np.asarray(index)
    comp = np.arange(2 * d)
    z = rng.normals(rng.DOMAIN_STATE, seed, idx[..., None], comp)
    g = z[..., :d] + 1j * z[..., d:]
    return g / np.linalg.norm(g, axis=-1, keepdims=True)
