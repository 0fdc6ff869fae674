"""Stochastic trajectory engine for diffusive pure-state unravelings.

Two models are supported: a qubit model with signed rates whose ensemble
average evolves under a master equation that need not be completely
positive, and the general diffusive model with Hamiltonian H, Lindblad
operators L_j, and an isometric noise matrix u mixing them into N real
Wiener channels.  Integration is Euler-Maruyama in the Ito convention with
post-step renormalization; noise comes from a counter-based stream so every
trajectory is reproducible independently of batching and thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .algebra import _bloch_components, bloch_from_density, bloch_from_state, max_abs, pauli
from .algebra import require_hermitian, require_normalized, resolve_steps
from .errors import DimensionError, StepSizeError, ValidationError

_SIGNED_RATES = (1.0, 1.0, -1.0)
_DEFAULT_BLOCK_BYTES = 1 << 24


def _wiener(seed: int, trajectory, step, channels: int, dt: float) -> np.ndarray:
    # The one Wiener keying; `trajectory` and `step` broadcast over paths and batches.
    return rng.normals(rng.DOMAIN_WIENER, seed, trajectory, step, np.arange(channels)) * np.sqrt(dt)


@dataclass(frozen=True)
class NoiseStream:
    """Counter-based Wiener increments keyed by (seed, trajectory, step, channel)."""

    seed: int
    trajectory_id: int

    def wiener(self, step: int, channels: int, dt: float) -> np.ndarray:
        """Increments dW ~ Normal(0, dt) for one step, shape (channels,)."""
        return _wiener(self.seed, self.trajectory_id, step, channels, dt)

    def wiener_block(self, steps: int, channels: int, dt: float) -> np.ndarray:
        """All increments for a trajectory, shape (steps, channels)."""
        return _wiener(self.seed, self.trajectory_id, np.arange(steps)[:, None], channels, dt)


@dataclass
class NonCpQubitModel:
    """Qubit diffusion with drift -(1/2) sum_k c_k (sigma_k - n_k)^2 psi and
    noise sqrt(2) n_z psi_perp dW.

    The default rates (1, 1, -1) make the ensemble average follow a master
    equation whose dynamical map is positive but not completely positive.
    `perp_phase` multiplies psi_perp by a fixed phase; the ensemble law is
    insensitive to it, individual paths are not.
    """

    rates: tuple = _SIGNED_RATES
    pole_tolerance: float = 1e-12
    perp_phase: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.rates, dtype=float)
        if c.shape != (3,):
            raise DimensionError(f"rate vector must have shape (3,), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValidationError("rates must be finite")
        self._c = c

    @property
    def dim(self) -> int:
        return 2

    @property
    def n_channels(self) -> int:
        return 1

    def propose(self, psi, dw, dt: float) -> np.ndarray:
        """Unchecked Ito proposal for dw of shape (..., 1); see `noncp_increment`."""
        c = self._c
        a, b = psi[..., 0], psi[..., 1]
        n1, n2, n3 = _bloch_components(psi)
        # (sigma_k - n_k)^2 = (1 + n_k^2) I - 2 n_k sigma_k, so the drift operator
        # splits into a scalar part and a weighted-Pauli part.
        scalar = c[0] * (1.0 + n1 * n1) + c[1] * (1.0 + n2 * n2) + c[2] * (1.0 + n3 * n3)
        w1, w2, w3 = c[0] * n1, c[1] * n2, c[2] * n3
        pauli_part = np.stack(
            [w1 * b - 1j * w2 * b + w3 * a, w1 * a + 1j * w2 * a - w3 * b], axis=-1
        )
        drift = -0.5 * scalar[..., None] * psi + pauli_part
        perp = _perp(a, b, n1, n2, self.pole_tolerance)
        if self.perp_phase:
            perp = perp * np.exp(1j * self.perp_phase)
        amp = np.sqrt(2.0) * n3
        return psi + drift * dt + (amp * dw[..., 0])[..., None] * perp


@dataclass
class GeneralDiffusiveModel:
    """General diffusive model: Hamiltonian, Lindblad operators, noise matrix.

    The N x n noise matrix must satisfy u^dag u = I_n so that the ensemble
    average obeys the Lindblad equation with operators L_j at unit rate.
    """

    hamiltonian: np.ndarray
    lindblads: tuple
    noise_matrix: np.ndarray

    def __post_init__(self):
        self.hamiltonian = require_hermitian(self.hamiltonian, tol=1e-12, what="Hamiltonian")
        d = self.hamiltonian.shape[0]
        ops = [np.asarray(op, dtype=complex) for op in self.lindblads]
        if not ops:
            raise ValidationError("need at least one Lindblad operator")
        for op in ops:
            if op.shape != (d, d):
                raise DimensionError(f"Lindblad operator shape {op.shape} does not match d = {d}")
        self.lindblads = tuple(ops)
        u = np.asarray(self.noise_matrix, dtype=complex)
        if u.ndim != 2 or u.shape[1] != len(ops):
            raise DimensionError(
                f"noise matrix must be N x n with n = {len(ops)} operators, got shape {u.shape}"
            )
        if u.shape[0] < u.shape[1]:
            raise ValidationError(f"noise matrix needs N >= n rows, got shape {u.shape}")
        dev = max_abs(u.conj().T @ u - np.eye(u.shape[1]))
        if dev > 1e-10:
            raise ValidationError(f"noise matrix is not an isometry (max |u^dag u - I| = {dev:.3e})")
        self.noise_matrix = u
        self._l_ops = np.array(ops)
        self._gram_sum = np.einsum("nij,njk->ik", np.conj(np.swapaxes(self._l_ops, -1, -2)), self._l_ops)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def n_channels(self) -> int:
        return self.noise_matrix.shape[0]

    def propose(self, psi, dw, dt: float) -> np.ndarray:
        """Unchecked Ito proposal for dw of shape (..., N); see `general_increment`."""
        l_psi = np.einsum("nij,...j->...ni", self._l_ops, psi)
        expv = np.einsum("...i,...ni->...n", psi.conj(), l_psi)
        centered = l_psi - expv[..., None] * psi[..., None, :]
        xi = np.einsum("...k,kn->...n", dw, self.noise_matrix)
        noise = np.einsum("...n,...ni->...i", xi, centered)
        drift = (
            -1j * np.einsum("ij,...j->...i", self.hamiltonian, psi)
            - 0.5 * np.einsum("ij,...j->...i", self._gram_sum, psi)
            + np.einsum("...n,...ni->...i", expv.conj(), l_psi)
            - 0.5 * np.einsum("...n,...n->...", expv.conj(), expv)[..., None].real * psi
        )
        return psi + drift * dt + noise


def _perp(a, b, n1, n2, pole_tolerance: float) -> np.ndarray:
    # 1 - n_z^2 evaluated as 4|a|^2|b|^2: identical for unit states but free
    # of the cancellation that loses precision near the poles.
    off = 4.0 * (a.conj() * a).real * (b.conj() * b).real
    pole = off < pole_tolerance
    inv = 1.0 / np.sqrt(np.where(pole, 1.0, off))
    regular = np.stack([(n2 + 1j * n1) * b * inv, (n2 - 1j * n1) * a * inv], axis=-1)
    fallback = np.stack([-b.conj(), a.conj()], axis=-1)
    return np.where(pole[..., None], fallback, regular)


def perp_state(psi, pole_tolerance: float = 1e-12) -> np.ndarray:
    """Unit state orthogonal to a qubit state.

    Off the poles this is (1 - n_z^2)^{-1/2} (n_y sigma_x - n_x sigma_y) psi;
    within `pole_tolerance` of n_z = +-1 the canonical orthogonal complement
    (-conj(psi_2), conj(psi_1)) is returned instead.
    """
    psi = np.asarray(psi, dtype=complex)
    n = bloch_from_state(psi)  # rejects non-qubit and unnormalized states
    return _perp(psi[..., 0], psi[..., 1], n[..., 0], n[..., 1], pole_tolerance)


def noncp_increment(psi, model: NonCpQubitModel, dw, dt: float) -> np.ndarray:
    """One Ito proposal psi + dpsi for the signed-rate qubit model (unnormalized).

    dpsi = -(1/2) sum_k c_k (sigma_k - n_k)^2 psi dt + sqrt(2) n_z psi_perp dW,
    with all coefficients evaluated at the pre-step state.  `dw` is the real
    Wiener increment (already scaled to variance dt).
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != 2:
        raise DimensionError(f"model is qubit-only, got state dim {psi.shape[-1]}")
    return model.propose(require_normalized(psi), np.asarray(dw)[..., None], dt)


def general_increment(psi, model: GeneralDiffusiveModel, dw, dt: float) -> np.ndarray:
    """One Ito proposal psi + dpsi for the general diffusive model (unnormalized).

    dpsi = [-iH dt + sum_kj u_kj (L_j - <L_j>) dW_k
            - (1/2) sum_j (L_j^dag L_j - 2 <L_j>* L_j + |<L_j>|^2) dt] psi.
    """
    psi = np.asarray(psi, dtype=complex)
    d = model.dim
    if psi.shape[-1] != d:
        raise DimensionError(f"state dim {psi.shape[-1]} does not match model dim {d}")
    dw = np.asarray(dw, dtype=float)
    if dw.shape[-1] != model.n_channels:
        raise DimensionError(
            f"need {model.n_channels} Wiener increments, got shape {dw.shape}"
        )
    return model.propose(psi, dw, dt)


def _renormalize(proposal, step: int, first_trajectory=None):
    # The only norm check of the stepping path: norm^2 below 0.01, inf or nan means dt is too large.
    norm2 = np.einsum("...i,...i->...", proposal.conj(), proposal).real
    # min() and max() cost microseconds even on one value; a lone state's norm^2 is compared as is.
    low, high = (norm2.min(), norm2.max()) if norm2.ndim else (norm2, norm2)
    if not 0.01 <= low <= high < np.inf:
        bad = int(np.argmax(~((norm2 >= 0.01) & (norm2 < np.inf))))
        who = "the trajectory" if first_trajectory is None else f"trajectory {first_trajectory + bad}"
        raise StepSizeError(
            f"{who} collapsed at step {step}: proposed norm^2 "
            f"{np.ravel(norm2)[bad]:.3g} is not a finite number >= 0.01; dt is too large"
        )
    return proposal / np.sqrt(norm2)[..., None], norm2


def step(psi, model, dw, dt: float) -> np.ndarray:
    """Euler-Maruyama step with exact renormalization; a failing batch row is reported at step 0."""
    psi = require_normalized(np.asarray(psi, dtype=complex))
    dw = np.asarray(dw, dtype=float)
    if psi.shape[-1] != model.dim or dw.shape[-1] != model.n_channels:
        raise DimensionError(f"need states (..., {model.dim}) and increments (..., {model.n_channels})")
    return _renormalize(model.propose(psi, dw, dt), 0, 0)[0]


@dataclass
class Trajectory:
    """One realization: states on the step grid plus norm diagnostics.

    `norm_drift[s]` is the signed pre-renormalization ||psi + dpsi||^2 - 1
    of step s; its running average probes the Ito norm balance.
    """

    times: np.ndarray
    states: np.ndarray
    norm_drift: np.ndarray


def simulate_with_noise(model, psi0, dt: float, increments, gauge=None) -> Trajectory:
    """Integrate a single trajectory driven by explicit Wiener increments.

    `increments` has shape (steps, n_channels).  If `gauge` is given it is
    called as gauge(psi, dw, dt) with the pre-step state and must return a
    real phase increment dchi; the stepped state is multiplied by
    exp(-i dchi).  Gauging never changes the projector path.
    """
    psi = require_normalized(np.asarray(psi0, dtype=complex))
    if psi.shape != (model.dim,):
        raise DimensionError(f"initial state shape {psi.shape} does not match model dim {model.dim}")
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 2 or increments.shape[1] != model.n_channels:
        raise DimensionError(
            f"increments must have shape (steps, {model.n_channels}), got {increments.shape}"
        )
    steps = increments.shape[0]
    states = np.empty((steps + 1, model.dim), dtype=complex)
    drifts = np.empty(steps)
    states[0] = psi
    for s in range(steps):
        dw = increments[s]
        nxt, norm2 = _renormalize(model.propose(psi, dw, dt), s)
        drifts[s] = norm2 - 1.0
        if gauge is not None:
            nxt = nxt * np.exp(-1j * float(gauge(psi, dw, dt)))
        psi = nxt
        states[s + 1] = psi
    times = np.arange(steps + 1) * dt
    return Trajectory(times=times, states=states, norm_drift=drifts)


def simulate_trajectory(
    model, psi0, t_final: float, dt: float, seed: int, trajectory_id: int = 0, gauge=None
) -> Trajectory:
    """Seeded single trajectory; identical output for identical (seed, id)."""
    steps = resolve_steps(t_final, dt)
    stream = NoiseStream(seed, trajectory_id)
    increments = stream.wiener_block(steps, model.n_channels, dt)
    return simulate_with_noise(model, psi0, dt, increments, gauge=gauge)


def apply_phase_gauge(psi, dchi) -> np.ndarray:
    """Multiply a state by exp(-i dchi); the projector is untouched."""
    psi = np.asarray(psi, dtype=complex)
    return psi * np.exp(-1j * np.asarray(dchi, dtype=float))


def pairwise_sum(values, axis: int = 0) -> np.ndarray:
    """Deterministic pairwise reduction: adjacent pairs are folded level by
    level, an odd tail passes through unchanged.  The result depends only on
    the operand order, never on chunking or thread count."""
    a = np.moveaxis(np.asarray(values), axis, 0)
    n = a.shape[0]
    if n == 0:
        raise ValidationError("cannot pairwise-reduce an empty axis")
    while n > 1:
        m = n // 2
        head = a[0 : 2 * m : 2] + a[1 : 2 * m : 2]
        a = np.concatenate([head, a[2 * m :]], axis=0) if n % 2 else head
        n = a.shape[0]
    return a[0]


@dataclass
class EnsembleEstimate:
    """Monte Carlo estimate of the ensemble density on a report grid."""

    times: np.ndarray
    mean_density: np.ndarray
    standard_error: np.ndarray
    trajectories: int

    def bloch(self) -> np.ndarray:
        """Bloch components tr(rho sigma_k) of the mean density, shape (G, 3)."""
        return bloch_from_density(self.mean_density)


def _block_partials(task):
    """Advance one block of trajectories and return its pairwise partial sums
    (projectors, Bloch components, squared Bloch components) on the grid.
    Module-level so blocks can run in worker processes."""
    model, psi0, seed, dt, steps, on_grid, slot_of, lo, hi = task
    b = hi - lo
    g = int(on_grid.sum())
    ids = np.arange(lo, hi)
    channels = model.n_channels
    psi = np.tile(psi0, (b, 1))
    proj = np.empty((b, g, 2, 2), dtype=complex)
    bloch = np.empty((b, g, 3))
    if on_grid[0]:
        proj[:, 0] = np.einsum("bi,bj->bij", psi, psi.conj())
        bloch[:, 0] = bloch_from_state(psi)
    for s in range(steps):
        dw = _wiener(seed, ids[:, None], s, channels, dt)
        psi = _renormalize(model.propose(psi, dw, dt), s, lo)[0]
        if on_grid[s + 1]:
            slot = slot_of[s + 1]
            proj[:, slot] = np.einsum("bi,bj->bij", psi, psi.conj())
            bloch[:, slot] = bloch_from_state(psi)
    return (
        pairwise_sum(proj, axis=0),
        pairwise_sum(bloch, axis=0),
        pairwise_sum(bloch * bloch, axis=0),
    )


def report_indices(steps: int, grid_points: int) -> np.ndarray:
    """Step indices of the report grid: `grid_points` evenly spaced points in
    (0, steps], or just [0] for an empty evolution."""
    if steps == 0:
        return np.array([0])
    count = min(max(1, grid_points), steps)
    return np.unique(np.round(steps * np.arange(1, count + 1) / count).astype(int))


def _block_size(grid_size: int) -> int:
    # Power-of-two block so per-block pairwise reductions compose into the
    # same global tree regardless of how blocks are scheduled.
    target = max(64, _DEFAULT_BLOCK_BYTES // max(1, grid_size * 112))
    size = 64
    while size * 2 <= min(target, 4096):
        size *= 2
    return size


def ensemble_density(
    model,
    psi0,
    t_final: float,
    dt: float,
    n_traj: int,
    seed: int,
    grid_points: int = 32,
    threads: int = 1,
) -> EnsembleEstimate:
    """Mean projector E|psi><psi| over seeded trajectories on a report grid.

    Trajectory i draws its noise from (seed, i, step, channel) alone, and the
    reduction over trajectories is a fixed pairwise tree, so the estimate is
    bitwise independent of `threads`.
    """
    if model.dim != 2:
        raise DimensionError("ensemble statistics are implemented for qubit models only")
    if n_traj < 1:
        raise ValidationError(f"need at least one trajectory, got {n_traj}")
    psi0 = require_normalized(np.asarray(psi0, dtype=complex))
    if psi0.shape != (2,):
        raise DimensionError(f"initial state shape {psi0.shape} does not match model dim 2")
    steps = resolve_steps(t_final, dt)
    grid_idx = report_indices(steps, grid_points)
    on_grid = np.zeros(steps + 1, dtype=bool)
    on_grid[grid_idx] = True
    slot_of = np.cumsum(on_grid) - 1

    block = _block_size(grid_idx.size)
    tasks = [
        (model, psi0, seed, dt, steps, on_grid, slot_of, lo, min(lo + block, n_traj))
        for lo in range(0, n_traj, block)
    ]
    # A forking pool starts all `max_workers` processes at once, so ask for no
    # more than can run at the same time or have a block to work on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, cpus, len(tasks))
    partials = None
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                partials = list(pool.map(_block_partials, tasks))
        except OSError:
            partials = None  # no subprocess support; fall through to serial
    if partials is None:
        partials = [_block_partials(t) for t in tasks]

    proj_sum = pairwise_sum(np.stack([p[0] for p in partials]), axis=0)
    n_sum = pairwise_sum(np.stack([p[1] for p in partials]), axis=0)
    n2_sum = pairwise_sum(np.stack([p[2] for p in partials]), axis=0)

    mean_density = proj_sum / n_traj
    if n_traj > 1:
        var = np.clip((n2_sum - n_sum * n_sum / n_traj) / (n_traj - 1), 0.0, None)
        se = np.sqrt(var / n_traj)
    else:
        se = np.full((grid_idx.size, 3), np.inf)
    return EnsembleEstimate(
        times=grid_idx * dt,
        mean_density=mean_density,
        standard_error=se,
        trajectories=n_traj,
    )


def identity_residual(psi, rates=_SIGNED_RATES):
    """Max-abs residual of 2 n_z^2 |perp><perp| = sum_k c_k (sigma_k - n_k) |psi><psi| (sigma_k - n_k).

    The identity holds exactly for rates (1, 1, -1) and any pure qubit state;
    for other rates the residual is simply reported.  Accepts a batch of
    states of shape (..., 2) and returns matching residuals.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != 2:
        raise DimensionError(f"identity check requires qubit states, got dim {psi.shape[-1]}")
    c = np.asarray(rates, dtype=float)
    if c.shape != (3,):
        raise DimensionError(f"rate vector must have shape (3,), got {c.shape}")
    n = bloch_from_state(psi)
    proj = np.einsum("...i,...j->...ij", psi, psi.conj())
    perp = perp_state(psi)
    lhs = 2.0 * (n[..., 2] ** 2)[..., None, None] * np.einsum("...i,...j->...ij", perp, perp.conj())
    eye = np.eye(2, dtype=complex)
    rhs = np.zeros_like(proj)
    for k in range(3):
        m_k = pauli(k + 1) - n[..., k, None, None] * eye
        rhs = rhs + c[k] * (m_k @ proj @ m_k)
    res = np.max(np.abs(lhs - rhs), axis=(-2, -1))
    return float(res) if res.ndim == 0 else res
