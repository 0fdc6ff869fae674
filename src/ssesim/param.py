"""Noise-matrix / correlation-matrix algebra for diffusive unravelings.

An N x n isometric noise matrix u mixes n Lindblad channels into N real
Wiener processes.  Physically distinct unravelings are labeled by the n x n
complex symmetric correlation matrix s with conj(s) = u^T u; the map u -> s
is many-to-one (u and O u give the same s for any orthogonal O), and every
feasible s (spectral norm <= 1) is realized by an explicit 2n x n isometry
built from a Takagi factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import rng
from .algebra import max_abs, resolve_steps
from .errors import DimensionError, InfeasibleError, ValidationError
from .sse import GeneralDiffusiveModel, NoiseStream, simulate_with_noise

_DEGENERACY_TOL = 1e-12


def _require_isometry(u, tol: float = 1e-10) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] < u.shape[1] or u.shape[1] < 1:
        raise DimensionError(f"noise matrix must be N x n with N >= n >= 1, got shape {u.shape}")
    dev = max_abs(u.conj().T @ u - np.eye(u.shape[1]))
    if dev > tol:
        raise ValidationError(f"noise matrix is not an isometry (max |u^dag u - I| = {dev:.3e})")
    return u


def _require_symmetric(s, tol: float = 1e-10) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"correlation matrix must be square, got shape {s.shape}")
    dev = max_abs(s - s.T)
    if dev > tol:
        raise ValidationError(f"correlation matrix is not symmetric (max |s - s^T| = {dev:.3e})")
    return s


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def correlation_from_noise(u) -> np.ndarray:
    """Correlation matrix s with conj(s)_jl = sum_k u_kj u_kl."""
    u = _require_isometry(u)
    s = np.conj(u.T @ u)
    if spectral_norm(s) > 1.0 + 1e-10:
        raise ValidationError("correlation matrix exceeds unit spectral norm; isometry input is inconsistent")
    return s


def map_noise_increments(u, dw) -> np.ndarray:
    """Image dxi*_j = sum_k dW_k u_kj of real Wiener increments, shape (..., n)."""
    u = np.asarray(u, dtype=complex)
    dw = np.asarray(dw, dtype=float)
    if dw.shape[-1] != u.shape[0]:
        raise DimensionError(f"need {u.shape[0]} increments per draw, got shape {dw.shape}")
    return np.einsum("...k,kn->...n", dw, u)


def takagi(s) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization s = w diag(sigma) w^T of a complex symmetric matrix.

    Built on the SVD s = U Sigma V^dag: for symmetric s the matrix U^dag
    conj(V) is block-diagonal over singular-value clusters and symmetric
    unitary within each, so its principal square root converts U into the
    Takagi vectors.  Clusters closer than 1e-12 are treated as degenerate;
    the zero cluster takes the U columns unchanged.
    """
    s = _require_symmetric(s)
    n = s.shape[0]
    u_svd, sigma, vh = np.linalg.svd(s)
    z = u_svd.conj().T @ vh.T
    w = np.zeros((n, n), dtype=complex)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and sigma[start] - sigma[stop] <= _DEGENERACY_TOL:
            stop += 1
        block = slice(start, stop)
        if sigma[start] <= _DEGENERACY_TOL:
            w[:, block] = u_svd[:, block]
        else:
            zb = z[block, block]
            zb = (zb + zb.T) / 2.0
            root = np.sqrt(zb[0, 0]) if stop - start == 1 else scipy.linalg.sqrtm(zb)
            w[:, block] = u_svd[:, block] @ np.atleast_2d(root).astype(complex)
        start = stop
    return sigma, w


def noise_from_correlation(s) -> np.ndarray:
    """Canonical 2n x n isometry u with conj(u^T u) = s.

    Takagi-factorize conj(s) = v diag(sigma) v^T, set p_j = sqrt((1+sigma_j)/2)
    and q_j = sqrt((1-sigma_j)/2), stack diag(p) over i*diag(q), and rotate by
    v^T.  Rejects spectral norm above 1 + 1e-10.
    """
    s = _require_symmetric(s)
    sigma, v = takagi(np.conj(s))
    if sigma.size and sigma[0] > 1.0 + 1e-10:
        raise InfeasibleError(f"correlation matrix has spectral norm {sigma[0]:.12g} > 1")
    p = np.sqrt((1.0 + sigma) / 2.0)
    q = np.sqrt(np.clip(1.0 - sigma, 0.0, None) / 2.0)
    stacked = np.vstack([np.diag(p), 1j * np.diag(q)]).astype(complex)
    u = stacked @ v.T
    if max_abs(u.conj().T @ u - np.eye(s.shape[0])) > 1e-10 or max_abs(np.conj(u.T @ u) - s) > 1e-10:
        raise ValidationError("Takagi construction failed to reproduce the correlation matrix")
    return u


@dataclass
class CorrelationCheck:
    symmetric: bool
    spectral_norm: float
    feasible: bool


def validate_correlation(s) -> CorrelationCheck:
    """Feasibility report: symmetry and spectral norm <= 1 + 1e-10."""
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"correlation matrix must be square, got shape {s.shape}")
    symmetric = max_abs(s - s.T) <= 1e-10
    norm = spectral_norm(s)
    return CorrelationCheck(
        symmetric=bool(symmetric),
        spectral_norm=norm,
        feasible=bool(symmetric and norm <= 1.0 + 1e-10),
    )


@dataclass
class RedundancyWitness:
    s_equal: bool
    s_deviation: float
    max_pathwise_deviation: float


def redundancy_witness(
    u,
    orthogonal,
    hamiltonian,
    lindblads,
    psi0,
    t_final: float,
    dt: float,
    seed: int,
    trajectory_id: int = 0,
) -> RedundancyWitness:
    """Check that u and O u define the same unraveling.

    (a) Their correlation matrices agree.  (b) Driving the noise matrix O u
    with increments dW equals, pathwise, driving u with O^T dW, because
    sum_k (O u)_kj dW_k = sum_k u_kj (O^T dW)_k.
    """
    u = _require_isometry(u)
    orth = np.asarray(orthogonal, dtype=float)
    n_rows = u.shape[0]
    if orth.shape != (n_rows, n_rows):
        raise DimensionError(f"orthogonal matrix must be {n_rows} x {n_rows}, got {orth.shape}")
    dev = max_abs(orth.T @ orth - np.eye(n_rows))
    if dev > 1e-10:
        raise ValidationError(f"matrix is not orthogonal (max |O^T O - I| = {dev:.3e})")

    s_plain = correlation_from_noise(u)
    s_rotated = correlation_from_noise(orth @ u)
    s_deviation = max_abs(s_rotated - s_plain)

    steps = resolve_steps(t_final, dt)
    dw = NoiseStream(seed, trajectory_id).wiener_block(steps, n_rows, dt)
    rotated_model = GeneralDiffusiveModel(hamiltonian, tuple(lindblads), orth @ u)
    plain_model = GeneralDiffusiveModel(hamiltonian, tuple(lindblads), u)
    traj_rotated = simulate_with_noise(rotated_model, psi0, dt, dw)
    traj_plain = simulate_with_noise(plain_model, psi0, dt, dw @ orth)
    pathwise = max_abs(traj_rotated.states - traj_plain.states)
    return RedundancyWitness(
        s_equal=bool(s_deviation <= 1e-12),
        s_deviation=float(s_deviation),
        max_pathwise_deviation=float(pathwise),
    )


def _param_normals(seed: int, tag: int, case: int, rows: int, cols: int, comp: int) -> np.ndarray:
    return rng.normals(
        rng.DOMAIN_PARAM, seed, tag, case, np.arange(rows)[:, None], np.arange(cols), comp
    )


def random_isometry(seed: int, n_rows: int, n_cols: int, case: int = 0) -> np.ndarray:
    """Deterministic Haar-ish N x n isometry (QR of counter-based Gaussians)."""
    if n_rows < n_cols or n_cols < 1:
        raise DimensionError(f"need N >= n >= 1, got N = {n_rows}, n = {n_cols}")
    g = _param_normals(seed, 1, case, n_rows, n_cols, 0) + 1j * _param_normals(
        seed, 1, case, n_rows, n_cols, 1
    )
    q, r = np.linalg.qr(g)
    phase = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phase


def random_orthogonal(seed: int, n: int, case: int = 0) -> np.ndarray:
    """Deterministic random N x N real orthogonal matrix."""
    g = _param_normals(seed, 2, case, n, n, 0)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r))


def random_correlation(seed: int, n: int, case: int = 0, target_norm: float = 0.9) -> np.ndarray:
    """Deterministic random feasible correlation matrix of spectral norm `target_norm`."""
    g = _param_normals(seed, 3, case, n, n, 0) + 1j * _param_normals(seed, 3, case, n, n, 1)
    s = (g + g.T) / 2.0
    norm = np.linalg.svd(s, compute_uv=False)[0]
    return s * (target_norm / norm)
