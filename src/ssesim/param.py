"""Noise-matrix / correlation-matrix algebra for diffusive unravelings.

An N x n isometric noise matrix u mixes n Lindblad channels into N real
Wiener processes.  Physically distinct unravelings are labeled by the n x n
complex symmetric correlation matrix s with conj(s) = u^T u; the map u -> s
is many-to-one (u and O u give the same s for any orthogonal O), and every
feasible s (spectral norm <= 1) is realized by an explicit 2n x n isometry,
the real square root of a symmetric 2n x 2n embedding of s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .algebra import max_abs, require_isometry, require_normalized, require_within, resolve_steps
from .errors import DimensionError, InfeasibleError, ValidationError
from .sse import GeneralDiffusiveModel, _contract, _path, _wiener, _wiener_key

# Entries of the largest temporary of the witness noise map, N^2 per case and
# step: at most _NOISE_ENTRIES per case, and _NOISE_STACK_ENTRIES in all.
_NOISE_ENTRIES = 1 << 8
_NOISE_STACK_ENTRIES = 1 << 20


def _require_symmetric(s) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2] or s.shape[-1] < 1:
        raise DimensionError(f"correlation matrix must be n x n with n >= 1, got shape {s.shape}")
    # An infinite entry gives NaN, with no warning, which the check below refuses.
    with np.errstate(invalid="ignore"):
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


def noise_from_correlation(s) -> np.ndarray:
    """Canonical 2n x n isometry u with conj(u^T u) = s, or a stack (..., 2n, n) of them for (..., n, n).

    With conj(s) = R + iJ, the real symmetric embedding E = [[R, J], [J, -R]]
    has spectrum +-sigma, the Takagi values of s, so its top eigenvalue is the
    spectral norm of s; above 1 + 1e-10 it is refused.  Otherwise the real
    square root M = sqrt((I + E) / 2) gives u = M[:, :n] + i M[:, n:], since
    M^2 = (I + E) / 2 says u^T u = R + iJ and u^dag u = I.  M is a function of
    E, so it does not depend on the eigenvectors picked inside a degenerate
    eigenspace.
    """
    s = _require_symmetric(s)
    t, n = np.conj(s), s.shape[-1]
    lam, vec = np.linalg.eigh(np.block([[t.real, t.imag], [t.imag, -t.real]]))
    message = "correlation matrix{at} has spectral norm {dev:.12g} > 1"
    require_within(lam.max(axis=-1, initial=0.0), 1.0 + 1e-10, InfeasibleError, message)
    root = (vec * np.sqrt(np.clip(1.0 + lam, 0.0, None) / 2.0)[..., None, :]) @ vec.swapaxes(-1, -2)
    u = require_isometry(root[..., :n] + 1j * root[..., n:])
    dev = max_abs(np.conj(u.swapaxes(-1, -2) @ u) - s, axis=(-2, -1))
    require_within(dev, 1e-10, ValidationError, "noise construction failed to reproduce correlation matrix{at}")
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
