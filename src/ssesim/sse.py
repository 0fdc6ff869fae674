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
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .algebra import _SIGMA, _bloch_components, bloch_from_density, bloch_from_state, report_indices
from .algebra import require_isometry, require_normalized, resolve_steps
from .errors import DimensionError, StepSizeError, ValidationError
from .master import MasterGenerator, pauli_generator

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
    """The paper's qubit diffusion at the signed rates c = (1, 1, -1): drift
    -(1/2) sum_k c_k (sigma_k - n_k)^2 psi and noise sqrt(2) n_z psi_perp dW.

    The rates are fixed: only at them does this noise unravel the drift's master
    equation, whose map is positive but not completely positive, and (c, c, -c)
    with noise sqrt(2c) is just the time rescaling t -> ct.
    """

    @property
    def dim(self) -> int:
        return 2

    @property
    def generator(self) -> MasterGenerator:
        """The Pauli generator at the rates (1, 1, -1), whose master equation this SSE unravels."""
        return pauli_generator(_SIGNED_RATES)

    @property
    def n_channels(self) -> int:
        return 1

    def propose(self, psi, dw, dt: float) -> np.ndarray:
        """Unchecked Ito proposal psi + dpsi for component-major psi (2, ...) and dw (1, ...):

        dpsi = -(1/2) sum_k c_k (sigma_k - n_k)^2 psi dt + sqrt(2) n_z psi_perp dW,
        with all coefficients evaluated at the pre-step state.
        """
        # Slices keep a lone state's components arrays, shape (1,): numpy's scalar
        # complex arithmetic rounds differently from the array loops a batch runs.
        a, b = psi[0:1], psi[1:2]
        n1, n2, n3 = _bloch_components(a, b)
        # (sigma_k - n_k)^2 = (1 + n_k^2) I - 2 n_k sigma_k, so the drift step is
        # I + dt (-half I + sum_k c_k n_k sigma_k): diagonal 1 + dt (-half +- c_3 n_3),
        # off-diagonal dt z* and dt z with z = c_1 n_1 + i c_2 n_2; the fixed c are written out.
        half = 0.5 * ((1.0 + n1 * n1) + (1.0 + n2 * n2) - (1.0 + n3 * n3))
        w3 = -n3
        dt_z = dt * n1 + 1j * (dt * n2)
        up, down = _perp(a, b, n1, n2)
        amp = np.sqrt(2.0) * n3 * dw
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
    average obeys the Lindblad equation with operators L_j at unit rate, the
    `generator` this model unravels: it checks H and the L_j, and forms the K the step uses.
    """

    hamiltonian: np.ndarray
    lindblads: tuple
    noise_matrix: np.ndarray

    def __post_init__(self):
        generator = MasterGenerator(self.hamiltonian, tuple((1.0, op) for op in self.lindblads))
        ops = tuple(op for _, op in generator.channels)
        if not ops:
            raise ValidationError("need at least one Lindblad operator")
        u = np.asarray(self.noise_matrix, dtype=complex)
        if u.ndim != 2 or u.shape[1] != len(ops):
            raise DimensionError(
                f"noise matrix must be N x n with n = {len(ops)} operators, got shape {u.shape}"
            )
        object.__setattr__(self, "hamiltonian", generator.hamiltonian)
        object.__setattr__(self, "lindblads", ops)
        object.__setattr__(self, "noise_matrix", require_isometry(u))
        object.__setattr__(self, "generator", generator)
        # The generator's K stacked over the Lindblad rows: one contraction gives K psi and every L_j psi.
        object.__setattr__(self, "_stacked_t", np.concatenate([generator.drift, *ops]).T.copy())

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


def _component_major(psi, model, dw):
    # Boundary of the stepping path: checked states and increments in one batch shape, component axis first.
    psi, dw = np.asarray(psi, dtype=complex), np.asarray(dw, dtype=float)
    if psi.shape[-1:] != (model.dim,) or dw.shape[-1:] != (model.n_channels,):
        raise DimensionError(f"need states (..., {model.dim}) and increments (..., {model.n_channels})")
    try:
        batch = np.broadcast_shapes(psi.shape[:-1], dw.shape[:-1])
    except ValueError:
        message = f"state batch {psi.shape[:-1]} and increment batch {dw.shape[:-1]} do not broadcast"
        raise DimensionError(message) from None
    psi = np.moveaxis(np.broadcast_to(require_normalized(psi), batch + psi.shape[-1:]), -1, 0)
    return psi, np.moveaxis(np.broadcast_to(dw, batch + dw.shape[-1:]), -1, 0)


def increment(psi, model, dw, dt: float) -> np.ndarray:
    """One unnormalized Ito proposal psi + dpsi of either model; see its `propose`.

    States are (..., d) and real Wiener increments (..., N), already scaled
    to variance dt; the two batch shapes broadcast.
    """
    return np.moveaxis(model.propose(*_component_major(psi, model, dw), dt), 0, -1)


def _path(advance, psi, noise, dt: float, ids=None, what: str = "trajectory"):
    # The one stepping loop: it yields the component-major start psi with norm^2 1, then for each step s's
    # noise the proposal advance(psi, noise_s, dt) over its norm, with that norm^2.  Its only check: norm^2
    # below 0.01, inf or nan means dt is too large; the failure names the `what` of the batch row in `ids`.
    yield psi, 1.0
    for s, xi in enumerate(noise):
        proposal = advance(psi, xi, dt)
        # An overflowing proposal is rejected below, so its inf or nan norm^2 is no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            norm2 = _sum_rows((proposal.conj() * proposal).real)
        # min() and max() cost microseconds even on one value; a lone state's norm^2 is compared as is.
        low, high = (norm2.min(), norm2.max()) if norm2.ndim else (norm2, norm2)
        if not 0.01 <= low <= high < np.inf:
            bad = int(np.argmax(~((norm2 >= 0.01) & (norm2 < np.inf))))
            who = f"the {what}" if ids is None else f"{what} {np.ravel(ids)[bad]}"
            raise StepSizeError(
                f"{who} collapsed at step {s}: proposed norm^2 "
                f"{np.ravel(norm2)[bad]:.3g} is not a finite number >= 0.01; dt is too large"
            )
        # Bit-identical to dividing: numpy divides a complex by a real as a product with its reciprocal.
        psi = proposal * (1.0 / np.sqrt(norm2))
        yield psi, norm2


def step(psi, model, dw, dt: float) -> np.ndarray:
    """Euler-Maruyama step: `increment` with exact renormalization; a failing batch row is reported at step 0."""
    psi, dw = _component_major(psi, model, dw)
    _, (psi, _) = _path(model.propose, psi, [dw], dt, np.arange(psi[0].size))
    return np.moveaxis(psi, 0, -1)


def _initial_state(model, psi0) -> np.ndarray:
    psi = require_normalized(psi0)
    if psi.shape != (model.dim,):
        raise DimensionError(f"initial state shape {psi.shape} does not match model dim {model.dim}")
    return psi


@dataclass
class Trajectory:
    """One realization: `states[s]` is the state at time s dt, plus norm diagnostics.

    `norm_drift[s]` is the signed pre-renormalization ||psi + dpsi||^2 - 1
    of step s; its running average probes the Ito norm balance.
    """

    states: np.ndarray
    norm_drift: np.ndarray


def simulate_with_noise(model, psi0, dt: float, increments, gauge=None) -> Trajectory:
    """Integrate a single trajectory driven by explicit Wiener increments.

    `increments` has shape (steps, n_channels).  If `gauge` is given it is
    called as gauge(psi, dw, dt) with the pre-step state and must return a
    real phase increment dchi; the step's proposal is multiplied by
    exp(-i dchi) before its norm is divided out.  Gauging never changes the
    projector path.
    """
    return _record(model, psi0, dt, increments, gauge)


def _record(model, psi0, dt: float, increments, gauge, ids=None) -> Trajectory:
    # The one single-trajectory recorder: a collapse names the trajectory `ids`, if given.
    psi = _initial_state(model, psi0)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 2 or increments.shape[1] != model.n_channels:
        raise DimensionError(f"increments must have shape (steps, {model.n_channels}), got {increments.shape}")

    def gauged(psi, dw, dt):
        return model.propose(psi, dw, dt) * np.exp(-1j * np.asarray(gauge(psi, dw, dt), dtype=float))

    states = np.empty((len(increments) + 1, model.dim), dtype=complex)
    norm2 = np.empty(len(states))
    for s, (psi, psi_norm2) in enumerate(_path(model.propose if gauge is None else gauged, psi, increments, dt, ids)):
        states[s], norm2[s] = psi, psi_norm2
    return Trajectory(states=states, norm_drift=norm2[1:] - 1.0)


def simulate_trajectory(
    model, psi0, t_final: float, dt: float, seed: int, trajectory_id: int = 0, gauge=None
) -> Trajectory:
    """Seeded single trajectory; identical output for identical (seed, id).  A collapse names the id."""
    steps = resolve_steps(t_final, dt)
    increments = _wiener(_wiener_key(seed, trajectory_id), np.arange(steps)[:, None], np.arange(model.n_channels), dt)
    return _record(model, psi0, dt, increments, gauge, trajectory_id)


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
    the projectors on the grid and of the squared real + 1j * squared imaginary
    parts of their deviations from psi0's projector.  States are component-major,
    shape (d, trajectories).
    Module-level so blocks can run in worker processes."""
    # Freeing one 16 MiB array raises glibc's mmap threshold past it (mallopt(3)), so that the
    # per-step temporaries of a fresh process, such as a pool worker, reuse the heap instead
    # of being mapped and faulted in anew on every step.
    np.empty(1 << 21)
    model, psi0, seed, dt, steps, grid_idx, lo, hi = task
    ids = np.arange(lo, hi)
    key = _wiener_key(seed, ids)
    channels = np.arange(model.n_channels)[:, None]
    noise = (_wiener(key, s, channels, dt) for s in range(steps))
    path = _path(model.propose, np.repeat(psi0[:, None], ids.size, axis=1), noise, dt, ids)
    grid = set(grid_idx.tolist())
    proj = np.empty((ids.size, grid_idx.size, psi0.size, psi0.size), dtype=complex)
    for slot, psi in enumerate(psi for s, (psi, _) in enumerate(path) if s in grid):
        proj[:, slot] = np.einsum("ib,jb->bij", psi, psi.conj())
    # A one-trajectory block's sum is a view of `proj`, which is shifted and squared in place next.
    total = pairwise_sum(proj).copy()
    proj -= np.outer(psi0, psi0.conj())
    parts = proj.view(float)
    np.square(parts, out=parts)
    return total, pairwise_sum(parts).view(complex)


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    dt,
    n_traj: int,
    seed: int,
    grid_points: int = 32,
    threads: int = 1,
) -> EnsembleEstimate | list[EnsembleEstimate]:
    """Mean projector E|psi><psi| over seeded trajectories on a report grid, at
    one step size dt, or one estimate per step size of a 1-D sequence dt.

    Trajectory i draws its noise from (seed, i, step, channel) alone, and the
    reduction over trajectories is a fixed pairwise tree, so each estimate is
    bitwise independent of `threads` and of the other step sizes.  The blocks
    of every step size go to one process pool of at most `threads` workers,
    longest first.
    """
    if np.ndim(dt) > 1:
        raise DimensionError(f"need one step size or a 1-D sequence of them, got shape {np.shape(dt)}")
    if n_traj < 1:
        raise ValidationError(f"need at least one trajectory, got {n_traj}")
    if n_traj > MAX_TRAJECTORIES:
        raise ValidationError(f"trajectories must be <= {MAX_TRAJECTORIES}, got {n_traj}")
    psi0 = _initial_state(model, psi0)

    levels, tasks = [], []
    partial_bytes = buffer_bytes = 0
    for level in np.ravel(dt).tolist():
        steps = resolve_steps(t_final, level)
        grid_idx = report_indices(steps, grid_points)
        record = grid_idx.size * 16 * psi0.size**2  # one trajectory's complex projector at every grid point
        block = _block_size(record)
        # Two partial sums per block, checked before the level's blocks are listed.
        partial_bytes += 2 * record * -(-n_traj // block)
        buffer_bytes = max(buffer_bytes, block * record)
        if partial_bytes + buffer_bytes > MAX_ENSEMBLE_BYTES:
            raise ValidationError(f"ensemble partial sums and records would exceed {MAX_ENSEMBLE_BYTES} bytes")
        first = len(tasks)
        tasks += [
            (model, psi0, seed, level, steps, grid_idx, lo, min(lo + block, n_traj))
            for lo in range(0, n_traj, block)
        ]
        levels.append((level, grid_idx, first, len(tasks)))
    # A forking pool starts all `max_workers` processes at once, so ask for no
    # more than can run at the same time or have a block to work on.
    workers = min(threads, available_cpus(), len(tasks))
    partials = None
    if workers > 1:
        # Longest blocks (steps x trajectories) first, so that the last to
        # finish are short; the partials go back into task order.
        order = sorted(range(len(tasks)), key=lambda i: -tasks[i][4] * (tasks[i][7] - tasks[i][6]))
        rng.load_ndtri()  # once here, so that forked workers do not each import scipy
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                done = dict(zip(order, pool.map(_block_partials, [tasks[i] for i in order])))
            partials = [done[i] for i in range(len(tasks))]
        except BrokenExecutor as exc:
            # Not the serial fallback below: a worker that died may die again in this process.
            raise OSError(f"an ensemble worker process died before returning its block: {exc}") from None
        except OSError:
            partials = None  # no subprocess support; fall through to serial
    if partials is None:
        partials = [_block_partials(t) for t in tasks]
    center = np.outer(psi0, psi0.conj())
    estimates = [_estimate(partials[i:j], grid_idx, level, n_traj, center) for level, grid_idx, i, j in levels]
    return estimates if np.ndim(dt) else estimates[0]


def _estimate(partials, grid_idx, dt: float, n_traj: int, center) -> EnsembleEstimate:
    # One level's blocks, reduced in block order by the fixed pairwise tree; the float views
    # of the complex sums give each entry's real and imaginary parts their own variance.
    # The squares are of deviations from `center`, psi0's projector, so that a spread far
    # below an entry's size keeps its digits: var = (S(x - c)^2 - (Sx - n c)^2 / n) / (n - 1).
    proj_sum = pairwise_sum(np.stack([p[0] for p in partials]))
    square_sum = pairwise_sum(np.stack([p[1] for p in partials]))
    if n_traj > 1:
        shift = (proj_sum - n_traj * center).view(float)
        var = np.clip((square_sum.view(float) - shift * shift / n_traj) / (n_traj - 1), 0.0, None)
        se = np.sqrt(var / n_traj).view(complex)
    else:
        se = np.full(proj_sum.shape, complex(np.inf, np.inf))
    return EnsembleEstimate(times=grid_idx * dt, mean_density=proj_sum / n_traj, density_standard_error=se)


def identity_residual(psi):
    """Max-abs residual of 2 n_z^2 |perp><perp| = sum_k c_k (sigma_k - n_k) |psi><psi| (sigma_k - n_k).

    The rates are the paper's c = (1, 1, -1), the only ones at which the
    identity holds for every pure qubit state; it is why one real Wiener noise
    unravels their map.
    Accepts a batch of states of shape (..., 2) and returns matching residuals.
    """
    psi = np.asarray(psi, dtype=complex)
    n = bloch_from_state(psi)
    perp = np.stack(_perp(psi[..., 0], psi[..., 1], n[..., 0], n[..., 1]), axis=-1)
    lhs = 2.0 * (n[..., 2] ** 2)[..., None, None] * np.einsum("...i,...j->...ij", perp, perp.conj())
    # sigma_k - n_k is Hermitian, so each term is v_k v_k^dag with v_k = sigma_k psi - n_k psi.
    v = np.einsum("kij,...j->...ki", _SIGMA, psi) - n[..., None] * psi[..., None, :]
    t0, t1, t2 = (np.einsum("...i,...j->...ij", v[..., k, :], v[..., k, :].conj()) for k in range(3))
    res = np.max(np.abs(lhs - (t0 + t1 - t2)), axis=(-2, -1))
    return float(res) if res.ndim == 0 else res
