"""Stochastic trajectory engine for diffusive pure-state unravelings.

Two models are supported: a qubit model with signed rates whose ensemble
average evolves under a master equation that need not be completely
positive, and the general diffusive model with Hamiltonian H, Lindblad
operators L_j, and an isometric noise matrix u mixing them into N real
Wiener channels.  Integration is Euler-Maruyama in the Ito convention with
post-step renormalization; noise comes from a counter-based stream so every
trajectory is reproducible independently of batching and thread count.

Inside the stepping path states are component-major: a batch of B
trajectories is a (d, B) array and its increments are (N, B), so each kernel
works on whole component rows, and a lone trajectory steps as a batch of one.
The public functions take and return states of shape (..., d).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .algebra import _bloch_components, bloch_from_state, report_indices
from .algebra import require_isometry, require_normalized, resolve_steps
from .errors import DimensionError, StepSizeError, ValidationError
from .master import MasterGenerator, pauli_generator

_SIGNED_RATES = (1.0, 1.0, -1.0)
# Where 1 - n_z^2 falls below this, psi_perp switches to its pole fallback.
_POLE_TOLERANCE = 1e-12
# Trajectories of the widest aligned chunk, whose partial sums a worker returns.
_MAX_CHUNK = 4096
# Trajectories of the widest batch an ensemble is cut into, give or take a chunk: wider
# batches cost less per trajectory-step until their temporaries outgrow the caches.
_BATCH_WIDTH = 10240
# Ceiling of an ensemble's trajectory count: the partial sums of every chunk of
# every level are kept until the reduction.
MAX_TRAJECTORIES = 10**8
# Ceiling of an ensemble's memory: the partial sums of every chunk of every
# level plus the projectors of the widest batch at a report time.
MAX_ENSEMBLE_BYTES = 1 << 30


def _wiener_key(seed: int, trajectory) -> np.ndarray:
    # The (domain, seed, trajectory) prefix of the Wiener draws, hashed once per path or batch.
    return rng.hash_u64(rng.DOMAIN_WIENER, seed, trajectory)


def _wiener(key, step, channel, dt: float) -> np.ndarray:
    # The one Wiener keying: the draw of (seed, trajectory, step, channel) from the
    # `_wiener_key` of (seed, trajectory); `key`, `step` and `channel` broadcast.
    return rng.normals(step, channel, prefix=key) * np.sqrt(dt)


def _dot(a, b):
    # sum_i a[i] * b[i] over the short leading axis, added left to right, with no stacked
    # (k, ...) temporary, so that each batch column's bits do not depend on its neighbours.
    total = a[0] * b[0]
    for i in range(1, len(a)):
        total += a[i] * b[i]
    return total


def _contract(matrix_t, x):
    # matrix @ x for component-major x of shape (k, ...), given matrix.T of
    # shape (k, m), or one matrix per column as matrix.T of shape (k, m, ...).
    # A BLAS matmul accumulates a column differently by the batch width, so
    # the k products are formed elementwise and summed in order.
    # Casting x once is cheaper than casting it inside every product.
    columns = matrix_t.reshape(matrix_t.shape + (1,) * (x.ndim + 1 - matrix_t.ndim))
    return _dot(columns, x.astype(matrix_t.dtype, copy=False))


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
        """Unchecked Ito proposal psi + dpsi for component-major psi (2, B) and dw (1, B):

        dpsi = -(1/2) sum_k c_k (sigma_k - n_k)^2 psi dt + sqrt(2) n_z psi_perp dW,
        with all coefficients evaluated at the pre-step state.
        """
        a, b = psi
        n1, n2, n3 = _bloch_components(a, b)
        # (sigma_k - n_k)^2 = (1 + n_k^2) I - 2 n_k sigma_k, so the drift step is
        # I + dt (-half I + sum_k c_k n_k sigma_k): diagonal 1 + dt (-half +- c_3 n_3),
        # off-diagonal dt z* and dt z with z = c_1 n_1 + i c_2 n_2; the fixed c are written out.
        half = 0.5 * ((1.0 + n1 * n1) + (1.0 + n2 * n2) - (1.0 + n3 * n3))
        w3 = -n3
        dt_z = dt * n1 + 1j * (dt * n2)
        up, down = _perp(a, b, n1, n2)
        amp = np.sqrt(2.0) * n3 * dw[0]
        out = np.empty(psi.shape, dtype=complex)
        top, bottom = out
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
        """Unchecked Ito proposal psi + dpsi for component-major psi (d, B) and dw (N, B):

        dpsi = [-iH dt + sum_kj u_kj (L_j - <L_j>) dW_k
                - (1/2) sum_j (L_j^dag L_j - 2 <L_j>* L_j + |<L_j>|^2) dt] psi.
        """
        return self.drive(psi, _contract(self.noise_matrix, dw), dt)

    def drive(self, psi, xi, dt: float) -> np.ndarray:
        """Unchecked Ito proposal for component-major psi (d, B) driven by the
        complex noise xi (n, B) = u^T dW, whatever noise matrix u mixed it."""
        d = psi.shape[0]
        stacked = _contract(self._stacked_t, psi)
        k_psi, l_psi = stacked[:d], stacked[d:].reshape((len(self.lindblads),) + psi.shape)
        expv = _dot(l_psi.swapaxes(0, 1), psi.conj())
        # psi + [K psi + sum_j (<L_j>* L_j - |<L_j>|^2 / 2) psi] dt + sum_j xi_j (L_j - <L_j>) psi
        # = psi + K psi dt + sum_j (g_j + dt <L_j>* / 2) L_j psi - (sum_j g_j <L_j>) psi
        # with g_j = dt <L_j>* / 2 + xi_j.
        half_drift = (0.5 * dt) * expv.conj()
        g = half_drift + xi
        out = psi + k_psi * dt
        out += _dot(g + half_drift, l_psi)
        out -= _dot(g, expv) * psi
        return out


def _perp(a, b, n1, n2):
    # The two components of psi_perp = (1 - n_z^2)^{-1/2} (n_y sigma_x - n_x sigma_y) psi, or of
    # (-conj(b), conj(a)) where 1 - n_z^2 < _POLE_TOLERANCE.  1 - n_z^2 is evaluated as
    # 4|a|^2|b|^2: identical for unit states but free of the cancellation near the poles.
    off = 4.0 * (a.conj() * a).real * (b.conj() * b).real
    pole = off < _POLE_TOLERANCE
    inv = 1.0 / np.sqrt(np.where(pole, 1.0, off))
    i_n1 = 1j * n1
    up, down = (n2 + i_n1) * b * inv, (n2 - i_n1) * a * inv
    if pole.any():
        up, down = np.where(pole, -b.conj(), up), np.where(pole, a.conj(), down)
    return up, down


def increment(psi, model, dw, dt: float) -> np.ndarray:
    """One unnormalized Ito proposal psi + dpsi of either model; see its `propose`.

    States are (..., d) and real Wiener increments (..., N), already scaled
    to variance dt; the two batch shapes broadcast.
    """
    psi, dw = np.asarray(psi, dtype=complex), np.asarray(dw, dtype=float)
    if psi.shape[-1:] != (model.dim,) or dw.shape[-1:] != (model.n_channels,):
        raise DimensionError(f"need states (..., {model.dim}) and increments (..., {model.n_channels})")
    try:
        batch = np.broadcast_shapes(psi.shape[:-1], dw.shape[:-1])
    except ValueError:
        message = f"state batch {psi.shape[:-1]} and increment batch {dw.shape[:-1]} do not broadcast"
        raise DimensionError(message) from None
    # The broadcast batch steps as the columns of one component-major batch.
    psi = np.broadcast_to(require_normalized(psi), batch + psi.shape[-1:]).reshape(-1, model.dim).T
    dw = np.broadcast_to(dw, batch + dw.shape[-1:]).reshape(-1, model.n_channels).T
    return model.propose(psi, dw, dt).T.reshape(batch + (model.dim,))


def _path(advance, psi, noise, dt: float, ids=None, what: str = "trajectory"):
    # The one stepping loop: it yields the component-major (d, B) start psi with (B,) norm^2 1, then for each
    # step s's (N, B) noise the proposal advance(psi, noise_s, dt) over its norm, with that norm^2.  Its only
    # check: norm^2 below 0.01, inf or nan means dt is too large; the failure names the `what` of the column in `ids`.
    yield psi, np.ones(psi.shape[1:])
    for s, xi in enumerate(noise):
        proposal = advance(psi, xi, dt)
        # An overflowing proposal is rejected below, so its inf or nan norm^2 is no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            squares = (proposal.conj() * proposal).real
            norm2 = sum(squares[1:], squares[0])  # left to right, into one contiguous row
        if not 0.01 <= norm2.min() <= norm2.max() < np.inf:
            bad = int(np.argmax(~((norm2 >= 0.01) & (norm2 < np.inf))))
            who = f"the {what}" if ids is None else f"{what} {np.ravel(ids)[bad]}"
            raise StepSizeError(
                f"{who} collapsed at step {s}: proposed norm^2 "
                f"{norm2[bad]:.3g} is not a finite number >= 0.01; dt is too large"
            )
        # Bit-identical to dividing: numpy divides a complex by a real as a product with its reciprocal.
        psi = proposal * (1.0 / np.sqrt(norm2))
        yield psi, norm2


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
    # The one single-trajectory recorder: the trajectory steps as a batch of one, and a collapse
    # names the trajectory `ids`, if given.  A gauge sees the (d,) state and the (N,) increments.
    psi = _initial_state(model, psi0)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 2 or increments.shape[1] != model.n_channels:
        raise DimensionError(f"increments must have shape (steps, {model.n_channels}), got {increments.shape}")

    def gauged(psi, dw, dt):
        return model.propose(psi, dw, dt) * np.exp(-1j * np.asarray(gauge(psi[:, 0], dw[:, 0], dt), dtype=float))

    states = np.empty((len(increments) + 1, model.dim), dtype=complex)
    norm2 = np.empty(len(states))
    path = _path(model.propose if gauge is None else gauged, psi[:, None], increments[:, :, None], dt, ids)
    for s, (psi, psi_norm2) in enumerate(path):
        states[s], norm2[s] = psi[:, 0], psi_norm2[0]
    return Trajectory(states=states, norm_drift=norm2[1:] - 1.0)


def simulate_trajectory(
    model, psi0, t_final: float, dt: float, seed: int, trajectory_id: int = 0, gauge=None
) -> Trajectory:
    """Seeded single trajectory; identical output for identical (seed, id).  A collapse names the id."""
    steps = resolve_steps(t_final, dt)
    increments = _wiener(_wiener_key(seed, trajectory_id), np.arange(steps)[:, None], np.arange(model.n_channels), dt)
    return _record(model, psi0, dt, increments, gauge, trajectory_id)


def _chunk_sums(x, chunk: int):
    # The sums over x's aligned runs of a power of two `chunk` along its last axis, of which only
    # the last may be short, on the leading axis of the result: log2(chunk) rounds of the pairwise
    # tree, each adding adjacent pairs and passing an odd tail through.  Pairwise sums over such
    # chunk sums are the pairwise sum over the whole axis.  Rounds over the last axis add long rows.
    while chunk > 1 and x.shape[-1] > 1:
        n = x.shape[-1]
        head = x[..., 0 : n - 1 : 2] + x[..., 1:n:2]
        x = np.concatenate([head, x[..., n - 1 :]], axis=-1) if n % 2 else head
        chunk //= 2
    return np.moveaxis(x, -1, 0)


def pairwise_sum(values) -> np.ndarray:
    """Deterministic pairwise reduction over the leading axis: adjacent pairs
    are folded level by level, an odd tail passes through unchanged.  The
    result depends only on the operand order, never on chunking or thread count."""
    a = np.asarray(values)
    if a.shape[0] == 0:
        raise ValidationError("cannot pairwise-reduce an empty axis")
    return _chunk_sums(np.moveaxis(a, 0, -1), 1 << a.shape[0].bit_length())[0]


@dataclass
class EnsembleEstimate:
    """Monte Carlo estimate of the ensemble density on a report grid; a qubit's Bloch views of it are in `algebra`."""

    times: np.ndarray
    mean_density: np.ndarray
    # Per entry of mean_density: the standard error of its real part + 1j * that of its imaginary part.
    density_standard_error: np.ndarray


def _cuts(n: int, parts: int, chunk: int) -> list[int]:
    # Bounds 0 <= ... <= n of `parts` contiguous ranges of n: each inner cut is the multiple
    # of `chunk` nearest to its even share, so every range is within one chunk of n / parts.
    inner = [(2 * i * n + parts * chunk) // (2 * parts * chunk) * chunk for i in range(1, parts)]
    return [0, *inner, n]


def _range_partials(task):
    """Advance trajectories lo..hi-1 as one component-major batch, shape
    (d, hi - lo), and return, for each aligned chunk of `chunk` of them, the
    pairwise sums over it of the projectors on the grid and of the squared
    real + 1j * squared imaginary parts of their deviations from psi0's
    projector: shape (2, chunks, grid, d, d).
    Module-level so batches can run in worker processes."""
    # Freeing one 16 MiB array raises glibc's mmap threshold past it (mallopt(3)), so that the
    # per-step temporaries of a fresh process, such as a pool worker, reuse the heap instead
    # of being mapped and faulted in anew on every step.
    np.empty(1 << 21)
    model, psi0, seed, dt, steps, grid_idx, lo, hi, chunk = task
    center = np.outer(psi0, psi0.conj())
    sums = np.empty((2, -(-(hi - lo) // chunk), grid_idx.size) + center.shape, dtype=complex)
    channels = np.arange(model.n_channels)[:, None]
    grid = set(grid_idx.tolist())
    ids = np.arange(lo, hi)
    key = _wiener_key(seed, ids)
    noise = (_wiener(key, s, channels, dt) for s in range(steps))
    path = _path(model.propose, np.repeat(psi0[:, None], ids.size, axis=1), noise, dt, ids)
    for slot, psi in enumerate(psi for s, (psi, _) in enumerate(path) if s in grid):
        proj = np.einsum("ib,jb->ijb", psi, psi.conj())
        sums[0, :, slot] = _chunk_sums(proj, chunk)
        proj -= center[..., None]
        squares = sums[1, :, slot]
        squares.real, squares.imag = (_chunk_sums(np.square(part), chunk) for part in (proj.real, proj.imag))
    return sums


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    bitwise independent of `threads` and of the other step sizes.  Each step
    size's trajectories are cut once, into k batches of at most about 10240
    for each of min(threads, CPUs) workers, at multiples of a power-of-two
    chunk: the coarsest, up to 4096 trajectories, that fits four times into a
    worker's even share.  One pool of at most `threads` processes takes every
    step size's batches k at a time, each hand-out one worker's contiguous
    share; each batch returns one partial sum per chunk, which the reduction
    takes in trajectory order.
    """
    if np.ndim(dt) > 1:
        raise DimensionError(f"need one step size or a 1-D sequence of them, got shape {np.shape(dt)}")
    if n_traj < 1:
        raise ValidationError(f"need at least one trajectory, got {n_traj}")
    if n_traj > MAX_TRAJECTORIES:
        raise ValidationError(f"trajectories must be <= {MAX_TRAJECTORIES}, got {n_traj}")
    psi0 = _initial_state(model, psi0)

    parts = max(1, min(threads, available_cpus()))  # a threads of 0 or less runs serially
    chunk = min(_MAX_CHUNK, 1 << (max(1, n_traj // (4 * parts)).bit_length() - 1))
    k = -(-n_traj // (parts * _BATCH_WIDTH))  # batches per worker; every k-th cut is a cut into `parts` ranges
    bounds = _cuts(n_traj, parts * k, chunk)
    batches = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    batch_bytes = 16 * psi0.size**2 * max(hi - lo for lo, hi in batches)  # the widest batch's complex projectors
    levels, tasks = [], []
    partial_bytes = 0
    for level in np.ravel(dt).tolist():
        steps = resolve_steps(t_final, level)
        grid_idx = report_indices(steps, grid_points)
        # Two partial sums per chunk and grid point, checked before the level's batches are listed.
        partial_bytes += 2 * 16 * psi0.size**2 * grid_idx.size * -(-n_traj // chunk)
        if partial_bytes + batch_bytes > MAX_ENSEMBLE_BYTES:
            raise ValidationError(f"ensemble partial sums and records would exceed {MAX_ENSEMBLE_BYTES} bytes")
        levels.append((level, grid_idx, len(tasks), len(tasks) + len(batches)))
        tasks += [(model, psi0, seed, level, steps, grid_idx, lo, hi, chunk) for lo, hi in batches]
    # A forking pool starts all `max_workers` processes at once, so ask for no
    # more than can run at the same time or have a batch to work on.
    workers = min(parts, len(tasks))
    partials = None
    if workers > 1:
        rng.load_ndtri()  # once here, so that forked workers do not each import scipy
        from concurrent.futures import BrokenExecutor

        try:
            with _process_pool(workers) as pool:
                partials = list(pool.map(_range_partials, tasks, chunksize=k))
        except BrokenExecutor as exc:
            # Not the serial fallback below: a worker that died may die again in this process.
            raise OSError(f"an ensemble worker process died before returning its batches: {exc}") from None
        except OSError:
            partials = None  # no subprocess support; fall through to serial
    if partials is None:
        partials = [_range_partials(t) for t in tasks]
    center = np.outer(psi0, psi0.conj())
    estimates = [_estimate(partials[i:j], grid_idx, level, n_traj, center) for level, grid_idx, i, j in levels]
    return estimates if np.ndim(dt) else estimates[0]


def _process_pool(workers: int):
    # Imported here, so that a command that never pools does not load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _estimate(partials, grid_idx, dt: float, n_traj: int, center) -> EnsembleEstimate:
    # One level's chunk sums, reduced in trajectory order by the fixed pairwise tree; the float
    # views of the complex sums give each entry's real and imaginary parts their own variance.
    # The squares are of deviations from `center`, psi0's projector, so that a spread far
    # below an entry's size keeps its digits: var = (S(x - c)^2 - (Sx - n c)^2 / n) / (n - 1).
    proj_sum, square_sum = pairwise_sum(np.concatenate(partials, axis=1).swapaxes(0, 1))
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
    # Component-major rows over the m states.  sigma_k - n_k is Hermitian, so each term is v_k v_k^dag with
    # v_k = sigma_k psi - n_k psi; sigma_k psi is the exact permutation (b, a), (-ib, ia), (a, -b).
    n = bloch_from_state(psi).reshape(-1, 3).T
    a, b = psi.reshape(-1, 2).T
    perp = np.stack(_perp(a, b, n[0], n[1]))
    lhs = 2.0 * n[2] ** 2 * np.einsum("im,jm->ijm", perp, perp.conj())
    v = np.array([(b, a), (-1j * b, 1j * a), (a, -b)]) - n[:, None] * np.stack([a, b])
    t0, t1, t2 = np.einsum("kim,kjm->kijm", v, v.conj())
    res = np.max(np.abs(lhs - (t0 + t1 - t2)).reshape(4, -1), axis=0).reshape(psi.shape[:-1])
    return float(res) if res.ndim == 0 else res
