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

from . import rng
from .algebra import max_abs, require_isometry, require_normalized, resolve_steps
from .errors import DimensionError, InfeasibleError, ValidationError
from .sse import GeneralDiffusiveModel, _contract, _renormalize, _wiener, _wiener_key

_DEGENERACY_TOL = 1e-12
# Entries of the largest temporary of the witness noise map, N^2 per case and step.
_NOISE_ENTRIES = 1 << 8


def _require_symmetric(s, tol: float = 1e-10) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"correlation matrix must be square, got shape {s.shape}")
    dev = max_abs(s - s.T)
    if dev > tol:
        raise ValidationError(f"correlation matrix is not symmetric (max |s - s^T| = {dev:.3e})")
    return s


def correlation_from_noise(u) -> np.ndarray:
    """Correlation matrix s with conj(s)_jl = sum_k u_kj u_kl."""
    u = require_isometry(u)
    s = np.conj(u.T @ u)
    if np.linalg.norm(s, 2) > 1.0 + 1e-10:
        raise ValidationError("correlation matrix exceeds unit spectral norm; isometry input is inconsistent")
    return s


def takagi(s) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization s = w diag(sigma) w^T of a complex symmetric matrix.

    s conj(w_j) = sigma_j w_j with w_j = x + iy says that (x, y) is an
    eigenvector of the real symmetric embedding [[Re s, Im s], [Im s, -Re s]]
    with eigenvalue sigma_j; its spectrum is +-sigma.  So the top n
    eigenvectors give the Takagi vectors however close the sigma_j lie, with
    no clusters to resolve.  Values at or below 1e-12 are set to 0, and a QR
    completes w to a unitary.
    """
    s = _require_symmetric(s)
    n = s.shape[0]
    lam, vec = np.linalg.eigh(np.block([[s.real, s.imag], [s.imag, -s.real]]))
    sigma, vec = lam[: n - 1 : -1], vec[:, : n - 1 : -1]
    kept = int(np.count_nonzero(sigma > _DEGENERACY_TOL))
    # A QR completes w and restores orthonormality lost where sigma_j is
    # barely above the threshold and so close to its -sigma_j partner; the
    # phases of its diagonal are put back, since w_j and e^{i phi} w_j differ.
    w, r = np.linalg.qr(vec[:n, :kept] + 1j * vec[n:, :kept], mode="complete")
    w[:, :kept] *= np.diagonal(r) / np.abs(np.diagonal(r))
    return np.where(sigma > _DEGENERACY_TOL, sigma, 0.0), w


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
    u = require_isometry(stacked @ v.T)
    if max_abs(np.conj(u.T @ u) - s) > 1e-10:
        raise ValidationError("Takagi construction failed to reproduce the correlation matrix")
    return u


@dataclass
class RedundancyWitness:
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
    return redundancy_witnesses(
        [u], [orthogonal], hamiltonian, lindblads, [psi0], t_final, dt, seed, [trajectory_id]
    )[0]


def redundancy_witnesses(
    noise_matrices, orthogonals, hamiltonian, lindblads, initial_states, t_final, dt, seed, case_ids
) -> list[RedundancyWitness]:
    """`redundancy_witness` for many cases at once, one per entry of `case_ids`.

    Case c pairs the N x n isometry noise_matrices[c], the N x N orthogonal
    orthogonals[c] and the initial state initial_states[c], and draws its
    increments as trajectory case_ids[c]; all cases share H, the L_j and the
    shape of u.  Every rotated and plain path steps in one component-major
    block, and only the running maximum of their distance is kept.
    """
    us = [require_isometry(u) for u in noise_matrices]
    orths = [np.asarray(o, dtype=float) for o in orthogonals]
    cases = len(us)
    if len({u.shape for u in us}) != 1 or len(orths) != cases or len(case_ids) != cases:
        raise DimensionError("need one noise matrix, orthogonal matrix and case id per case, all of one shape")
    n_rows = us[0].shape[0]
    for orth in orths:
        if orth.shape != (n_rows, n_rows):
            raise DimensionError(f"orthogonal matrix must be {n_rows} x {n_rows}, got {orth.shape}")
        require_isometry(orth, "orthogonal matrix")
    rotated = [orth @ u for orth, u in zip(orths, us)]
    s_deviations = [max_abs(correlation_from_noise(r) - correlation_from_noise(u)) for r, u in zip(rotated, us)]

    model = GeneralDiffusiveModel(hamiltonian, tuple(lindblads), us[0])
    psi0 = require_normalized(np.asarray(initial_states, dtype=complex))
    if psi0.shape != (cases, model.dim):
        raise DimensionError(f"need one initial state of dim {model.dim} per case, got shape {psi0.shape}")
    steps = resolve_steps(t_final, dt)
    # Column c < C of the (d, 2C) block takes O u and dW, column C + c takes u
    # and O^T dW.  Both noise maps are the ordered contraction of the ensemble
    # kernels, so each case rounds as it would stepped alone.  The noise of up
    # to _NOISE_ENTRIES / (N^2 C) steps is drawn, keyed per step, and mapped at
    # once, so memory is bounded whatever the number of steps.
    noise_t = np.stack(rotated + us, axis=-1)[:, :, None]
    orth_t = np.stack(orths, axis=-1)[:, :, None]
    ids = np.asarray(case_ids)
    key = _wiener_key(seed, ids)
    block = max(1, _NOISE_ENTRIES // (n_rows * n_rows * cases))
    channels = np.arange(n_rows)[:, None, None]
    psi, labels = np.tile(psi0.T, 2), np.tile(ids, 2)
    pathwise = np.zeros(cases)
    for first in range(0, steps, block):
        span = np.arange(first, min(first + block, steps))
        dw = _wiener(key, span[:, None], channels, dt)
        xi = _contract(noise_t, np.concatenate([dw, _contract(orth_t, dw)], axis=-1))
        for j, s in enumerate(span):
            psi = _renormalize(model.drive(psi, xi[:, j], dt), s, labels, "witness case")[0]
            np.maximum(pathwise, np.abs(psi[:, :cases] - psi[:, cases:]).max(axis=0), out=pathwise)
    return [
        RedundancyWitness(s_deviation=float(dev), max_pathwise_deviation=float(path))
        for dev, path in zip(s_deviations, pathwise)
    ]


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
