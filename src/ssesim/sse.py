"""Stochastic trajectory engine for diffusive pure-state unravelings.

Two models are supported: a qubit model with signed rates whose ensemble
average evolves under a master equation that need not be completely
positive, and the general diffusive model with Hamiltonian H, Lindblad
operators L_j, and an isometric noise matrix u mixing them into N real
Wiener channels.  Integration is Euler-Maruyama in the Ito convention with
post-step renormalization; noise comes from a counter-based stream so every
trajectory is reproducible independently of batching and thread count.

Inside the stepping path states are component-major: a block of B
trajectories is a (d, B) array and its increments are (N, B), so each kernel
works on whole component rows; a lone trajectory keeps its (d,) and (N,)
shapes and rounds exactly like a batch column.  The public functions take
and return states of shape (..., d).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .algebra import _bloch_components, bloch_from_density, bloch_from_state, pauli, report_indices
from .algebra import require_hermitian, require_isometry, require_normalized, require_rates, resolve_steps
from .errors import DimensionError, StepSizeError, ValidationError

_SIGNED_RATES = (1.0, 1.0, -1.0)
# Where 1 - n_z^2 falls below this, psi_perp switches to its pole fallback.
_POLE_TOLERANCE = 1e-12
_DEFAULT_BLOCK_BYTES = 1 << 24
# Ceiling of an ensemble's trajectory count: every 4096-trajectory block of
# every level is listed, and its partial sums kept, before the reduction.
MAX_TRAJECTORIES = 10**8
# Ceiling of an ensemble's memory: the partial sums of every block of every
# level plus the projector records of one block.
MAX_ENSEMBLE_BYTES = 1 << 30


def _wiener_key(seed: int, trajectory) -> np.ndarray:
    # The (domain, seed, trajectory) prefix of the Wiener draws, hashed once per path or block.
    return rng.hash_u64(rng.DOMAIN_WIENER, seed, trajectory)


def _wiener(key, step, channel, dt: float) -> np.ndarray:
    # The one Wiener keying: the draw of (seed, trajectory, step, channel) from the
    # `_wiener_key` of (seed, trajectory); `key`, `step` and `channel` broadcast.
    return rng.normals(step, channel, prefix=key) * np.sqrt(dt)


def _sum_rows(x):
    # Left-to-right sum over the short leading axis of a temporary x, which it
    # overwrites: the rows accumulate into x[0].  numpy's sum() pairs the terms
    # of one trajectory's contiguous axis differently than those of a batch,
    # and the kernels must give a batch column the bits of a lone state.
    total = x[0]
    for i in range(1, len(x)):
        total += x[i]
    return total


def _contract(matrix_t, x):
    # matrix @ x for component-major x of shape (k, ...), given matrix.T of
    # shape (k, m), or one matrix per column as matrix.T of shape (k, m, ...).
    # A BLAS matmul accumulates a batch column differently from the same vector
    # alone, so the k products are formed elementwise and summed in order.
    # Casting x once is cheaper than casting it inside every product.
    columns = matrix_t.reshape(matrix_t.shape + (1,) * (x.ndim + 1 - matrix_t.ndim))
    return _sum_rows(columns * x.astype(matrix_t.dtype, copy=False)[:, None])


@dataclass(frozen=True)
class NonCpQubitModel:
    """Qubit diffusion with drift -(1/2) sum_k c_k (sigma_k - n_k)^2 psi and
    noise sqrt(2) n_z psi_perp dW.

    The default rates (1, 1, -1) make the ensemble average follow a master
    equation whose dynamical map is positive but not completely positive.
    `perp_phase` multiplies psi_perp by a fixed phase; the ensemble law is
    insensitive to it, individual paths are not.
    """

    rates: tuple = _SIGNED_RATES
    perp_phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "_c", require_rates(self.rates))

    @property
    def dim(self) -> int:
        return 2

    @property
    def n_channels(self) -> int:
        return 1

    def propose(self, psi, dw, dt: float) -> np.ndarray:
        """Unchecked Ito proposal psi + dpsi for component-major psi (2, ...) and dw (1, ...):

        dpsi = -(1/2) sum_k c_k (sigma_k - n_k)^2 psi dt + sqrt(2) n_z psi_perp dW,
        with all coefficients evaluated at the pre-step state.
        """
        c1, c2, c3 = self._c
        # Slices keep a lone state's components arrays, shape (1,): numpy's scalar
        # complex arithmetic rounds differently from the array loops a batch runs.
        a, b = psi[0:1], psi[1:2]
        n1, n2, n3 = _bloch_components(a, b)
        # (sigma_k - n_k)^2 = (1 + n_k^2) I - 2 n_k sigma_k, so the drift step is
        # I + dt (-half I + sum_k c_k n_k sigma_k): diagonal 1 + dt (-half +- c_3 n_3),
        # off-diagonal dt z* and dt z with z = c_1 n_1 + i c_2 n_2.
        half = 0.5 * (c1 * (1.0 + n1 * n1) + c2 * (1.0 + n2 * n2) + c3 * (1.0 + n3 * n3))
        w3 = c3 * n3
        dt_z = dt * (c1 * n1) + 1j * (dt * (c2 * n2))
        up, down = _perp(a, b, n1, n2)
        amp = np.sqrt(2.0) * n3 * dw
        if self.perp_phase:
            amp = amp * np.exp(1j * self.perp_phase)
        out = np.empty(psi.shape, dtype=complex)
        top, bottom = out[0:1], out[1:2]
        np.multiply(1.0 + dt * (w3 - half), a, out=top)
        top += dt_z.conj() * b
        top += amp * up
        np.multiply(1.0 - dt * (w3 + half), b, out=bottom)
        bottom += dt_z * a
        bottom += amp * down
        return out


@dataclass(frozen=True)
class GeneralDiffusiveModel:
    """General diffusive model: Hamiltonian, Lindblad operators, noise matrix.

    The N x n noise matrix must satisfy u^dag u = I_n so that the ensemble
    average obeys the Lindblad equation with operators L_j at unit rate.
    """

    hamiltonian: np.ndarray
    lindblads: tuple
    noise_matrix: np.ndarray

    def __post_init__(self):
        h = require_hermitian(self.hamiltonian, tol=1e-12, what="Hamiltonian")
        d = h.shape[0]
        ops = [np.asarray(op, dtype=complex) for op in self.lindblads]
        if not ops:
            raise ValidationError("need at least one Lindblad operator")
        for op in ops:
            if op.shape != (d, d):
                raise DimensionError(f"Lindblad operator shape {op.shape} does not match d = {d}")
        u = np.asarray(self.noise_matrix, dtype=complex)
        if u.ndim != 2 or u.shape[1] != len(ops):
            raise DimensionError(
                f"noise matrix must be N x n with n = {len(ops)} operators, got shape {u.shape}"
            )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblads", tuple(ops))
        object.__setattr__(self, "noise_matrix", require_isometry(u))
        # The drift operator K = -iH - (1/2) sum_j L_j^dag L_j stacked over the
        # Lindblad rows: one contraction gives K psi and every L_j psi.
        drift_op = -1j * h - 0.5 * sum(op.conj().T @ op for op in ops)
        object.__setattr__(self, "_stacked_t", np.concatenate([drift_op, *ops]).T.copy())

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def n_channels(self) -> int:
        return self.noise_matrix.shape[0]

    def propose(self, psi, dw, dt: float) -> np.ndarray:
        """Unchecked Ito proposal psi + dpsi for component-major psi (d, ...) and dw (N, ...):

        dpsi = [-iH dt + sum_kj u_kj (L_j - <L_j>) dW_k
                - (1/2) sum_j (L_j^dag L_j - 2 <L_j>* L_j + |<L_j>|^2) dt] psi.
        """
        return self.drive(psi, _contract(self.noise_matrix, dw), dt)

    def drive(self, psi, xi, dt: float) -> np.ndarray:
        """Unchecked Ito proposal for component-major psi (d, ...) driven by the
        complex noise xi (n, ...) = u^T dW, whatever noise matrix u mixed it."""
        d = psi.shape[0]
        stacked = _contract(self._stacked_t, psi)
        k_psi, l_psi = stacked[:d], stacked[d:].reshape((-1,) + psi.shape)
        expv = _sum_rows((l_psi * psi.conj()).swapaxes(0, 1))
        # psi + [K psi + sum_j (<L_j>* L_j - |<L_j>|^2 / 2) psi] dt + sum_j xi_j (L_j - <L_j>) psi
        # = psi + K psi dt + sum_j (g_j + dt <L_j>* / 2) L_j psi - (sum_j g_j <L_j>) psi
        # with g_j = dt <L_j>* / 2 + xi_j.
        half_drift = (0.5 * dt) * expv.conj()
        g = half_drift + xi
        out = psi + k_psi * dt
        out += _sum_rows((g + half_drift)[:, None] * l_psi)
        out -= _sum_rows(g * expv) * psi
        return out


def _perp(a, b, n1, n2):
    # The two components of psi_perp.  1 - n_z^2 is evaluated as 4|a|^2|b|^2:
    # identical for unit states but free of the cancellation near the poles.
    off = 4.0 * (a.conj() * a).real * (b.conj() * b).real
    pole = off < _POLE_TOLERANCE
    inv = 1.0 / np.sqrt(np.where(pole, 1.0, off))
    i_n1 = 1j * n1
    up, down = (n2 + i_n1) * b * inv, (n2 - i_n1) * a * inv
    if pole.any():
        up, down = np.where(pole, -b.conj(), up), np.where(pole, a.conj(), down)
    return up, down


def perp_state(psi) -> np.ndarray:
    """Unit state orthogonal to a qubit state.

    This is (1 - n_z^2)^{-1/2} (n_y sigma_x - n_x sigma_y) psi, except where
    1 - n_z^2 < `_POLE_TOLERANCE` = 1e-12, next to the poles: there the
    canonical orthogonal complement (-conj(psi_2), conj(psi_1)) is returned.
    """
    psi = np.asarray(psi, dtype=complex)
    n = bloch_from_state(psi)  # rejects non-qubit and unnormalized states
    return np.stack(_perp(psi[..., 0], psi[..., 1], n[..., 0], n[..., 1]), axis=-1)


def increment(psi, model, dw, dt: float) -> np.ndarray:
    """One unnormalized Ito proposal psi + dpsi of either model; see its `propose`.

    States are (..., d) and real Wiener increments (..., N), already scaled
    to variance dt; the two batch shapes broadcast.
    """
    psi, dw = np.asarray(psi, dtype=complex), np.asarray(dw, dtype=float)
    if psi.shape[-1:] != (model.dim,) or dw.shape[-1:] != (model.n_channels,):
        raise DimensionError(f"need states (..., {model.dim}) and increments (..., {model.n_channels})")
    # Boundary of the stepping path: both broadcast to one batch shape and move their component axis first.
    try:
        batch = np.broadcast_shapes(psi.shape[:-1], dw.shape[:-1])
    except ValueError:
        raise DimensionError(
            f"state batch {psi.shape[:-1]} and increment batch {dw.shape[:-1]} do not broadcast"
        ) from None
    psi = np.moveaxis(np.broadcast_to(require_normalized(psi), batch + psi.shape[-1:]), -1, 0)
    dw = np.moveaxis(np.broadcast_to(dw, batch + dw.shape[-1:]), -1, 0)
    return np.moveaxis(model.propose(psi, dw, dt), 0, -1)


def _renormalize(proposal, step: int, ids=None, what: str = "trajectory"):
    # The only norm check of the stepping path: norm^2 below 0.01, inf or nan means dt is too large.
    # A failure names the `what` of the batch position in `ids`, when given.
    # An overflowing proposal is rejected below, so its inf or nan norm^2 is no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = _sum_rows((proposal.conj() * proposal).real)
    # min() and max() cost microseconds even on one value; a lone state's norm^2 is compared as is.
    low, high = (norm2.min(), norm2.max()) if norm2.ndim else (norm2, norm2)
    if not 0.01 <= low <= high < np.inf:
        bad = int(np.argmax(~((norm2 >= 0.01) & (norm2 < np.inf))))
        who = f"the {what}" if ids is None else f"{what} {np.ravel(ids)[bad]}"
        raise StepSizeError(
            f"{who} collapsed at step {step}: proposed norm^2 "
            f"{np.ravel(norm2)[bad]:.3g} is not a finite number >= 0.01; dt is too large"
        )
    # Bit-identical to dividing: numpy divides a complex by a real as a product with its reciprocal.
    return proposal * (1.0 / np.sqrt(norm2)), norm2


def step(psi, model, dw, dt: float) -> np.ndarray:
    """Euler-Maruyama step: `increment` with exact renormalization; a failing batch row is reported at step 0."""
    proposal = np.moveaxis(increment(psi, model, dw, dt), -1, 0)
    return np.moveaxis(_renormalize(proposal, 0, np.arange(proposal[0].size))[0], 0, -1)


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
            nxt = nxt * np.exp(-1j * np.asarray(gauge(psi, dw, dt), dtype=float))
        psi = nxt
        states[s + 1] = psi
    times = np.arange(steps + 1) * dt
    return Trajectory(times=times, states=states, norm_drift=drifts)


def simulate_trajectory(
    model, psi0, t_final: float, dt: float, seed: int, trajectory_id: int = 0, gauge=None
) -> Trajectory:
    """Seeded single trajectory; identical output for identical (seed, id)."""
    steps = resolve_steps(t_final, dt)
    increments = _wiener(_wiener_key(seed, trajectory_id), np.arange(steps)[:, None], np.arange(model.n_channels), dt)
    return simulate_with_noise(model, psi0, dt, increments, gauge=gauge)


def pairwise_sum(values) -> np.ndarray:
    """Deterministic pairwise reduction over the leading axis: adjacent pairs
    are folded level by level, an odd tail passes through unchanged.  The
    result depends only on the operand order, never on chunking or thread count."""
    a = np.asarray(values)
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
    # Per entry of mean_density: the standard error of its real part + 1j * that of its imaginary part.
    density_standard_error: np.ndarray
    trajectories: int

    def bloch(self) -> np.ndarray:
        """Bloch components tr(rho sigma_k) of the mean density, shape (G, 3)."""
        return bloch_from_density(self.mean_density)

    @property
    def standard_error(self) -> np.ndarray:
        """Standard errors (G, 3) of n_1 = 2 Re rho_10, n_2 = 2 Im rho_10 and n_3 = 2 rho_00 - 1."""
        se = self.density_standard_error
        if se.shape[-2:] != (2, 2):
            raise DimensionError(f"Bloch standard errors need a qubit ensemble, got shape {se.shape}")
        return 2.0 * np.stack([se[..., 1, 0].real, se[..., 1, 0].imag, se[..., 0, 0].real], axis=-1)


def _block_partials(task):
    """Advance one block of trajectories and return the pairwise sums over it of
    the projectors on the grid and of their entries' squared real + 1j * squared
    imaginary parts.  States are component-major, shape (d, trajectories).
    Module-level so blocks can run in worker processes."""
    model, psi0, seed, dt, steps, grid_idx, lo, hi = task
    b = hi - lo
    g = grid_idx.size
    ids = np.arange(lo, hi)
    key = _wiener_key(seed, ids)
    channels = np.arange(model.n_channels)[:, None]
    psi = np.repeat(psi0[:, None], b, axis=1)
    proj = np.empty((b, g, psi0.size, psi0.size), dtype=complex)
    slot = 0
    for s in range(steps + 1):
        if slot < g and grid_idx[slot] == s:
            proj[:, slot] = np.einsum("ib,jb->bij", psi, psi.conj())
            slot += 1
        if s < steps:
            dw = _wiener(key, s, channels, dt)
            psi = _renormalize(model.propose(psi, dw, dt), s, ids)[0]
    # A one-trajectory block's sum is a view of `proj`, which is squared in place next.
    total = pairwise_sum(proj).copy()
    parts = proj.view(float)
    np.square(parts, out=parts)
    return total, pairwise_sum(parts).view(complex)


def _block_size(record_bytes: int) -> int:
    # Power-of-two block so per-block pairwise reductions compose into the
    # same global tree regardless of how blocks are scheduled: the largest
    # from 64 to 4096 whose records fit in _DEFAULT_BLOCK_BYTES, else 64.
    size = 4096
    while size > 64 and size * record_bytes > _DEFAULT_BLOCK_BYTES:
        size //= 2
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
    return ensemble_densities(model, psi0, t_final, [dt], n_traj, seed, grid_points, threads)[0]


def ensemble_densities(
    model,
    psi0,
    t_final: float,
    dts,
    n_traj: int,
    seed: int,
    grid_points: int = 32,
    threads: int = 1,
) -> list[EnsembleEstimate]:
    """`ensemble_density` at each step size in `dts`, bitwise as if run alone.

    The blocks of all levels go to one process pool of at most `threads`
    workers, longest first.
    """
    if n_traj < 1:
        raise ValidationError(f"need at least one trajectory, got {n_traj}")
    if n_traj > MAX_TRAJECTORIES:
        raise ValidationError(f"trajectories must be <= {MAX_TRAJECTORIES}, got {n_traj}")
    d = model.dim
    psi0 = require_normalized(np.asarray(psi0, dtype=complex))
    if psi0.shape != (d,):
        raise DimensionError(f"initial state shape {psi0.shape} does not match model dim {d}")

    levels, tasks = [], []
    partial_bytes = buffer_bytes = 0
    for dt in dts:
        steps = resolve_steps(t_final, dt)
        grid_idx = report_indices(steps, grid_points)
        record = grid_idx.size * 16 * d * d  # one trajectory's complex projector at every grid point
        block = _block_size(record)
        # Two partial sums per block, checked before the level's blocks are listed.
        partial_bytes += 2 * record * -(-n_traj // block)
        buffer_bytes = max(buffer_bytes, block * record)
        if partial_bytes + buffer_bytes > MAX_ENSEMBLE_BYTES:
            raise ValidationError(f"ensemble partial sums and records would exceed {MAX_ENSEMBLE_BYTES} bytes")
        first = len(tasks)
        tasks += [
            (model, psi0, seed, dt, steps, grid_idx, lo, min(lo + block, n_traj))
            for lo in range(0, n_traj, block)
        ]
        levels.append((dt, grid_idx, first, len(tasks)))
    # A forking pool starts all `max_workers` processes at once, so ask for no
    # more than can run at the same time or have a block to work on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, cpus, len(tasks))
    partials = None
    if workers > 1:
        # Longest blocks (steps x trajectories) first, so that the last to
        # finish are short; the partials go back into task order.
        order = sorted(range(len(tasks)), key=lambda i: -tasks[i][4] * (tasks[i][7] - tasks[i][6]))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                done = dict(zip(order, pool.map(_block_partials, [tasks[i] for i in order])))
            partials = [done[i] for i in range(len(tasks))]
        except OSError:
            partials = None  # no subprocess support; fall through to serial
    if partials is None:
        partials = [_block_partials(t) for t in tasks]
    return [
        _estimate(partials[first:last], grid_idx, dt, n_traj) for dt, grid_idx, first, last in levels
    ]


def _estimate(partials, grid_idx, dt: float, n_traj: int) -> EnsembleEstimate:
    # One level's blocks, reduced in block order by the fixed pairwise tree; the float views
    # of the complex sums give each entry's real and imaginary parts their own variance.
    proj_sum = pairwise_sum(np.stack([p[0] for p in partials]))
    square_sum = pairwise_sum(np.stack([p[1] for p in partials]))
    if n_traj > 1:
        parts = proj_sum.view(float)
        var = np.clip((square_sum.view(float) - parts * parts / n_traj) / (n_traj - 1), 0.0, None)
        se = np.sqrt(var / n_traj).view(complex)
    else:
        se = np.full(proj_sum.shape, complex(np.inf, np.inf))
    return EnsembleEstimate(
        times=grid_idx * dt, mean_density=proj_sum / n_traj, density_standard_error=se, trajectories=n_traj
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
    c = require_rates(rates)
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
