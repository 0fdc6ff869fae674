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
from .algebra import max_abs, require_isometry, require_normalized, require_within, resolve_steps
from .errors import DimensionError, InfeasibleError, ValidationError
from .sse import GeneralDiffusiveModel, _contract, _path, _wiener, _wiener_key

_DEGENERACY_TOL = 1e-12
# Entries of the largest temporary of the witness noise map, N^2 per case and
# step: at most _NOISE_ENTRIES per case, and _NOISE_STACK_ENTRIES in all.
_NOISE_ENTRIES = 1 << 8
_NOISE_STACK_ENTRIES = 1 << 20


def _require_symmetric(s) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise DimensionError(f"correlation matrix must be square, got shape {s.shape}")
    dev = max_abs(s - s.swapaxes(-1, -2), axis=(-2, -1))
    message = "correlation matrix{at} is not symmetric (max |s - s^T| = {dev:.3e})"
    require_within(dev, 1e-10, ValidationError, message)
    return s


def correlation_from_noise(u) -> np.ndarray:
    """Correlation matrix s with conj(s)_jl = sum_k u_kj u_kl, of one isometry or a stack (..., N, n)."""
    u = require_isometry(u)
    s = np.conj(u.swapaxes(-1, -2) @ u)
    norm = np.linalg.svd(s, compute_uv=False)[..., 0]
    message = "correlation matrix{at} exceeds unit spectral norm; isometry input is inconsistent"
    require_within(norm, 1.0 + 1e-10, ValidationError, message)
    return s


def takagi(s) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization s = w diag(sigma) w^T of a complex symmetric matrix, or of each of a stack.

    s conj(w_j) = sigma_j w_j with w_j = x + iy says that (x, y) is an
    eigenvector of the real symmetric embedding [[Re s, Im s], [Im s, -Re s]]
    with eigenvalue sigma_j; its spectrum is +-sigma.  So the top n
    eigenvectors give the Takagi vectors however close the sigma_j lie, with
    no clusters to resolve.  Values at or below 1e-12 are set to 0, and a QR
    completes w to a unitary.
    """
    s = _require_symmetric(s)
    n = s.shape[-1]
    lam, vec = np.linalg.eigh(np.block([[s.real, s.imag], [s.imag, -s.real]]))
    sigma, vec = lam[..., : n - 1 : -1], vec[..., : n - 1 : -1]
    kept = sigma > _DEGENERACY_TOL
    # A QR completes w and restores orthonormality lost where sigma_j is
    # barely above the threshold and so close to its -sigma_j partner; the
    # phases of its diagonal are put back on the kept columns, since w_j and
    # e^{i phi} w_j differ.  The dropped columns, the trailing ones, are zeroed
    # so that the QR leaves the kept ones as it would factor them alone.
    vectors = np.where(kept[..., None, :], vec[..., :n, :] + 1j * vec[..., n:, :], 0.0)
    w, r = np.linalg.qr(vectors, mode="complete")
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phase = np.divide(d, np.abs(d), out=np.ones_like(d), where=kept)
    np.multiply(w, phase[..., None, :], out=w, where=kept[..., None, :])
    return np.where(kept, sigma, 0.0), w


def noise_from_correlation(s) -> np.ndarray:
    """Canonical 2n x n isometry u with conj(u^T u) = s, or a stack (..., 2n, n) of them for (..., n, n).

    Takagi-factorize conj(s) = v diag(sigma) v^T, set p_j = sqrt((1+sigma_j)/2)
    and q_j = sqrt((1-sigma_j)/2), stack diag(p) over i*diag(q), and rotate by
    v^T.  Rejects spectral norm above 1 + 1e-10.
    """
    s = np.asarray(s, dtype=complex)
    sigma, v = takagi(np.conj(s))
    message = "correlation matrix{at} has spectral norm {dev:.12g} > 1"
    require_within(sigma.max(axis=-1, initial=0.0), 1.0 + 1e-10, InfeasibleError, message)
    n = s.shape[-1]
    stacked = np.zeros(s.shape[:-2] + (2 * n, n), dtype=complex)
    diagonal = np.arange(n)
    stacked[..., diagonal, diagonal] = np.sqrt((1.0 + sigma) / 2.0)
    stacked[..., n + diagonal, diagonal] = 1j * np.sqrt(np.clip(1.0 - sigma, 0.0, None) / 2.0)
    u = require_isometry(stacked @ v.swapaxes(-1, -2))
    dev = max_abs(np.conj(u.swapaxes(-1, -2) @ u) - s, axis=(-2, -1))
    require_within(dev, 1e-10, ValidationError, "Takagi construction failed to reproduce correlation matrix{at}")
    return u


@dataclass
class RedundancyWitness:
    """Per case of the stack, so each field has the stack's batch shape: () for one case."""

    s_deviation: np.ndarray
    max_pathwise_deviation: np.ndarray


def redundancy_witness(
    u, orthogonal, hamiltonian, lindblads, psi0, t_final: float, dt: float, seed: int, trajectory_id=0
) -> RedundancyWitness:
    """Check that u and O u define the same unraveling, for one case or a stack of cases.

    (a) Their correlation matrices agree.  (b) Driving the noise matrix O u
    with increments dW equals, pathwise, driving u with O^T dW, because
    sum_k (O u)_kj dW_k = sum_k u_kj (O^T dW)_k.  One case pairs the N x n
    isometry u, the N x N orthogonal O and the initial state psi0, and draws
    its increments as trajectory `trajectory_id`; a stack of cases adds one
    leading axis to each of the four.  All cases share H, the L_j and the
    shape of u.  Every rotated and plain path steps in one component-major
    block, and only the running maximum of their distance is kept.
    """
    us, ids = require_isometry(u), np.asarray(trajectory_id)
    if ids.ndim > 1 or us.shape[:-2] != ids.shape:
        raise DimensionError("need one noise matrix per trajectory id: one case, or a stack with one case axis")
    if ids.size == 0:
        raise DimensionError("need at least one case, got an empty stack")
    batch, n_rows, cases = ids.shape, us.shape[-2], ids.size
    orths = np.asarray(orthogonal, dtype=float)
    if orths.shape != batch + (n_rows, n_rows):
        raise DimensionError(f"need one {n_rows} x {n_rows} orthogonal matrix per case, got shape {orths.shape}")
    require_isometry(orths, "orthogonal matrix")
    # One case steps as a stack of one.
    us, orths, ids = us.reshape(-1, n_rows, us.shape[-1]), orths.reshape(-1, n_rows, n_rows), ids.reshape(-1)
    rotated = orths @ us  # a product of checked isometries, so its correlation is formed bare below
    s_deviations = max_abs(np.conj(rotated.swapaxes(-1, -2) @ rotated) - np.conj(us.swapaxes(-1, -2) @ us), axis=(-2, -1))

    model = GeneralDiffusiveModel(hamiltonian, tuple(lindblads), us[0])
    psi0 = require_normalized(psi0)
    if psi0.shape != batch + (model.dim,):
        raise DimensionError(f"need one initial state of dim {model.dim} per case, got shape {psi0.shape}")
    steps = resolve_steps(t_final, dt)
    # Column c < C of the (d, 2C) block takes O u and dW, column C + c takes u
    # and O^T dW.  Both noise maps are the ordered contraction of the ensemble
    # kernels, so each case rounds as it would stepped alone.  The noise of up
    # to _NOISE_ENTRIES / N^2 steps (fewer where the stack bound is reached
    # first) is drawn, keyed per step, and mapped at once, then handed to the
    # stepping loop step by step, so memory is bounded whatever the steps.
    noise_t = np.concatenate([rotated, us]).transpose(1, 2, 0)[:, :, None].copy()
    orth_t = orths.transpose(1, 2, 0)[:, :, None].copy()
    key = _wiener_key(seed, ids)
    block = max(1, min(_NOISE_ENTRIES, _NOISE_STACK_ENTRIES // cases) // n_rows**2)
    channels = np.arange(n_rows)[:, None, None]

    def mixed_noise():
        for first in range(0, steps, block):
            dw = _wiener(key, np.arange(first, min(first + block, steps))[:, None], channels, dt)
            yield from _contract(noise_t, np.concatenate([dw, _contract(orth_t, dw)], axis=-1)).swapaxes(0, 1)

    pathwise, start = np.zeros(cases), np.tile(psi0.reshape(cases, -1).T, 2)
    for psi, _ in _path(model.drive, start, mixed_noise(), dt, np.tile(ids, 2), "witness case"):
        np.maximum(pathwise, np.abs(psi[:, :cases] - psi[:, cases:]).max(axis=0), out=pathwise)
    return RedundancyWitness(s_deviation=s_deviations.reshape(batch), max_pathwise_deviation=pathwise.reshape(batch))


def _param_normals(seed: int, tag: int, case, rows: int, cols: int, comp: int) -> np.ndarray:
    case = np.asarray(case)[..., None, None]
    return rng.normals(rng.DOMAIN_PARAM, seed, tag, case, np.arange(rows)[:, None], np.arange(cols), comp)


def _diagonal(r) -> np.ndarray:
    return np.diagonal(r, axis1=-2, axis2=-1)[..., None, :]


def random_isometry(seed: int, n_rows: int, n_cols: int, case=0) -> np.ndarray:
    """Deterministic Haar-ish N x n isometry (QR of counter-based Gaussians), or (..., N, n) for an array of cases."""
    if n_rows < n_cols or n_cols < 1:
        raise DimensionError(f"need N >= n >= 1, got N = {n_rows}, n = {n_cols}")
    g = _param_normals(seed, 1, case, n_rows, n_cols, 0) + 1j * _param_normals(seed, 1, case, n_rows, n_cols, 1)
    q, r = np.linalg.qr(g)
    return q * (_diagonal(r) / np.abs(_diagonal(r)))


def random_orthogonal(seed: int, n: int, case=0) -> np.ndarray:
    """Deterministic random N x N real orthogonal matrix, or (..., N, N) for an array of cases."""
    q, r = np.linalg.qr(_param_normals(seed, 2, case, n, n, 0))
    return q * np.sign(_diagonal(r))


def random_correlation(seed: int, n: int, case=0) -> np.ndarray:
    """Deterministic random feasible correlation matrix of spectral norm 0.9, or (..., n, n) of them."""
    g = _param_normals(seed, 3, case, n, n, 0) + 1j * _param_normals(seed, 3, case, n, n, 1)
    s = (g + g.swapaxes(-1, -2)) / 2.0
    norm = np.linalg.svd(s, compute_uv=False)[..., :1, None]
    return s * (0.9 / norm)
