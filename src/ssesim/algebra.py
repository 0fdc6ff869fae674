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


def max_abs(a, axis=None):
    """Largest entrywise magnitude, as a float, or as an array along `axis`; NaN if any entry is NaN."""
    m = np.abs(np.asarray(a)).max(axis=axis, initial=0.0)
    return float(m) if axis is None else m


def require_within(dev, tol: float, error: type, message: str) -> None:
    """Raise `error` unless every deviation in `dev` is <= tol, so that NaN fails too.

    `dev` is a scalar for one matrix, or holds one deviation per matrix of a
    stack.  `message` is formatted with `dev`, the first failing deviation,
    and `at`: empty for a scalar, else " i" naming that matrix's stack index.
    """
    dev = np.asarray(dev)
    bad = ~(dev <= tol)
    if bad.any():
        index = np.unravel_index(np.argmax(bad), dev.shape)
        at = "" if not index else f" {int(index[0])}" if len(index) == 1 else f" {tuple(map(int, index))}"
        raise error(message.format(at=at, dev=dev[index]))


def matrix_scale(a) -> np.ndarray:
    """max(1, max |A|) per matrix (..., n, n): deviations divided by it make a large matrix's rounding no defect."""
    return np.abs(a).max(axis=(-2, -1), initial=1.0)


def hermiticity_deviation(a) -> np.ndarray:
    """max |A - A^dag| / matrix_scale(A) per matrix (..., n, n); NaN, with no warning, for an infinite entry."""
    with np.errstate(invalid="ignore"):
        return max_abs(a - a.conj().swapaxes(-1, -2), axis=(-2, -1)) / matrix_scale(a)


def require_hermitian(a, tol: float = 1e-12, what: str = "matrix") -> np.ndarray:
    """A Hermitian n x n matrix, or a stack (..., n, n) of them, as a complex array."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValidationError(f"{what} must be square, got shape {a.shape}")
    dev = hermiticity_deviation(a)
    require_within(dev, tol, ValidationError, what + "{at} is not Hermitian (scaled max |A - A^dag| = {dev:.3e})")
    return a


def require_hamiltonian(h) -> np.ndarray:
    """One Hermitian d x d matrix, as a complex array."""
    h = require_hermitian(h, tol=1e-12, what="Hamiltonian")
    if h.ndim != 2:
        raise DimensionError(f"Hamiltonian must be one d x d matrix, got shape {h.shape}")
    return h


def require_normalized(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    norm2 = np.einsum("...i,...i->...", psi.conj(), psi).real
    dev = max_abs(norm2 - 1.0)
    require_within(dev, 1e-8, ValidationError, "state is not normalized (max ||psi||^2 - 1| = {dev:.3e})")
    return psi


def require_isometry(u, what: str = "noise matrix") -> np.ndarray:
    """An N x n matrix with N >= n >= 1 and u^dag u = I_n, or a stack (..., N, n) of them, as a complex array."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] < 1:
        raise DimensionError(f"{what} must be N x n with n >= 1, got shape {u.shape}")
    if u.shape[-2] < u.shape[-1]:
        raise ValidationError(f"{what} needs N >= n rows, got shape {u.shape}")
    # A finite u may overflow u^dag u: the check below refuses it, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        dev = max_abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]), axis=(-2, -1))
    require_within(dev, 1e-10, ValidationError, what + "{at} is not an isometry (max |u^dag u - I| = {dev:.3e})")
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


def bloch_standard_error(density_se) -> np.ndarray:
    """Standard errors (..., 3) of n_1 = 2 Re rho_10, n_2 = 2 Im rho_10 and n_3 = 2 rho_00 - 1, from those
    (..., 2, 2) of a qubit density's entries, each the se of its real part + 1j * that of its imaginary part."""
    se = np.asarray(density_se)
    if se.shape[-2:] != (2, 2):
        raise DimensionError(f"Bloch standard errors need a qubit ensemble, got shape {se.shape}")
    return 2.0 * np.stack([se[..., 1, 0].real, se[..., 1, 0].imag, se[..., 0, 0].real], axis=-1)


def state_from_bloch(n) -> np.ndarray:
    """Pure qubit state (cos(theta/2), e^{i phi} sin(theta/2)) for a unit Bloch vector.

    The half-angle factors are formed as sqrt((1 +- n_z) / 2), which is exact at both poles.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise DimensionError(f"Bloch vector must have shape (3,), got {n.shape}")
    with np.errstate(over="ignore"):  # a huge finite n has norm inf, refused below with no numpy warning
        norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= 1e-8:  # refuses a nan norm too
        raise ValidationError(f"Bloch vector of a pure state must be unit length, got ||n|| = {norm}")
    z = np.clip(n[2] / norm, -1.0, 1.0)
    phi = np.arctan2(n[1], n[0])
    return np.array([np.sqrt((1.0 + z) / 2.0), np.exp(1j * phi) * np.sqrt((1.0 - z) / 2.0)], dtype=complex)


def hermitian_eigen(a):
    """Eigendecomposition of a complex Hermitian matrix or a stack (..., n, n) of them (LAPACK through numpy's eigh).

    Returns (w, v) with eigenvalues w ascending and unitary v satisfying
    a @ v = v @ diag(w), each with the stack's batch axes in front.
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
