"""Deterministic master-equation engine.

Signed-rate Lindblad generators built once as d^2 x d^2 superoperators,
classical RK4 integration applied as a step propagator, the closed-form
Bloch solution for Pauli-channel generators, dynamical maps, Choi matrices,
and complete-positivity / positivity diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    _SIGMA,
    bloch_from_density,
    hermitian_eigen,
    max_abs,
    random_state,
    require_hermitian,
    require_rates,
    resolve_steps,
)
from .errors import DimensionError, ValidationError


@dataclass(frozen=True)
class MasterGenerator:
    """Generator -i[H, rho] + sum_k c_k (A_k rho A_k^dag - {A_k^dag A_k, rho}/2).

    `channels` is a sequence of (rate, operator) pairs; rates may be negative.
    The generator is built once as the d^2 x d^2 matrix L acting on
    row-major vectorized matrices, where vec(A rho B) = (A (x) B^T) vec(rho):
    L = -i (H (x) I - I (x) H^T) + sum_k c_k (A_k (x) conj(A_k) - G_k (x) I / 2 - I (x) G_k^T / 2)
    with G_k = A_k^dag A_k.
    """

    hamiltonian: np.ndarray
    channels: tuple = ()

    def __post_init__(self):
        h = require_hermitian(self.hamiltonian, tol=1e-12, what="Hamiltonian")
        d = h.shape[0]
        eye = np.eye(d)
        superop = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        channels = []
        for rate, op in self.channels:
            op = np.asarray(op, dtype=complex)
            if op.shape != (d, d):
                raise DimensionError(f"channel operator shape {op.shape} does not match d = {d}")
            rate = float(rate)
            gram = op.conj().T @ op
            superop += rate * (np.kron(op, op.conj()) - 0.5 * np.kron(gram, eye) - 0.5 * np.kron(eye, gram.T))
            channels.append((rate, op))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", tuple(channels))
        object.__setattr__(self, "_superop", superop)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def pauli_generator(rates) -> MasterGenerator:
    """Qubit generator with H = 0 and channels (c_k, sigma_k), k = 1..3."""
    return MasterGenerator(np.zeros((2, 2)), tuple(zip(require_rates(rates), _SIGMA.copy())))


def _rk4_step(gen: MasterGenerator, dt: float) -> np.ndarray:
    """One classical RK4 step of size dt on dv/dt = L v.

    On this linear ODE the step is exactly the matrix P = sum_{j<=4} (dt L)^j / j!,
    so P is built once and applied per step.
    """
    hl = dt * gen._superop
    eye = np.eye(len(hl))
    return eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)


def require_density(rho, what: str = "density matrix") -> np.ndarray:
    rho = require_hermitian(np.asarray(rho, dtype=complex), tol=1e-11, what=what)
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-11:
        raise ValidationError(f"{what} must have unit trace, got {tr}")
    return rho


def integrate_master(rho0, gen: MasterGenerator, t: float, dt: float) -> np.ndarray:
    """Evolve a density matrix to time t, a whole multiple of dt, with classical RK4."""
    rho0 = require_density(rho0)
    if rho0.shape != (gen.dim, gen.dim):
        raise DimensionError(f"state shape {rho0.shape} does not match generator dimension {gen.dim}")
    steps = resolve_steps(t, dt)
    step = _rk4_step(gen, dt)
    vec = rho0.reshape(-1).copy()
    for _ in range(steps):
        vec = step @ vec
    return vec.reshape(rho0.shape)


def analytic_pauli_solution(n0, rates, t) -> np.ndarray:
    """Closed-form Bloch solution n_j(t) = exp(-2 (C - c_j) t) n_j(0), C = sum c.

    `t` may be a scalar or an array; the result has shape (..., 3).
    """
    n0 = np.asarray(n0, dtype=float)
    if n0.shape != (3,):
        raise DimensionError(f"Bloch vector must have shape (3,), got {n0.shape}")
    c = require_rates(rates)
    t = np.asarray(t, dtype=float)
    decay = np.exp(-2.0 * (np.sum(c) - c) * t[..., None])
    return n0 * decay


@dataclass
class DynamicalMap:
    """Superoperator acting on row-major vectorized d x d matrices."""

    superoperator: np.ndarray
    time: float
    dim: int = field(init=False)

    def __post_init__(self):
        s = np.asarray(self.superoperator, dtype=complex)
        d2 = s.shape[0]
        d = int(round(math.sqrt(d2)))
        if s.shape != (d2, d2) or d * d != d2:
            raise DimensionError(f"superoperator must be d^2 x d^2, got shape {s.shape}")
        self.superoperator = s
        self.dim = d
        tvec = np.eye(d, dtype=complex).reshape(-1)
        if max_abs(tvec @ s - tvec) > 1e-9:
            raise ValidationError("dynamical map is not trace preserving")
        # Lambda(E_ij)^dag = Lambda(E_ji) for all i, j is Hermiticity of the Choi matrix.
        c = _reshuffle(s, d)
        if max_abs(c - c.conj().T) > 1e-9:
            raise ValidationError("dynamical map is not Hermiticity preserving")


def apply_map(m: DynamicalMap, mats) -> np.ndarray:
    """Apply the map to a matrix or a batch of matrices of shape (..., d, d)."""
    d = m.dim
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-2:] != (d, d):
        raise DimensionError(f"operand shape {mats.shape} does not match map dimension {d}")
    vecs = mats.reshape(*mats.shape[:-2], d * d)
    out = np.einsum("ab,...b->...a", m.superoperator, vecs)
    return out.reshape(*mats.shape[:-2], d, d)


def extract_map(gen: MasterGenerator, t: float, dt: float) -> DynamicalMap:
    """Dynamical map of the generator at time t: the RK4 propagator over [0, t]."""
    return map_grid(gen, [t], dt)[0]


def map_grid(gen: MasterGenerator, times, dt: float) -> list[DynamicalMap]:
    """Maps at an ascending grid of times, integrated cumulatively.

    Each time must be a whole multiple of dt, and the grid's step counts must
    strictly increase, so every map matches its own extraction exactly.
    """
    gaps = np.diff([resolve_steps(t, dt) for t in times], prepend=0)
    if np.any(gaps[1:] <= 0):
        raise ValidationError("grid times must resolve to strictly increasing step counts of dt")
    step = _rk4_step(gen, dt)
    s = np.eye(gen.dim**2, dtype=complex)
    maps = []
    for t, gap in zip(times, gaps):
        for _ in range(gap):
            s = step @ s
        maps.append(DynamicalMap(s, time=float(t)))
    return maps


def bloch_block(m: DynamicalMap) -> np.ndarray:
    """3x3 real Bloch block B_kl = tr(sigma_k Lambda(sigma_l)) / 2 of a qubit map."""
    return 0.5 * bloch_from_density(apply_map(m, _SIGMA)).T


def pauli_channel_map(lambdas, time: float = 0.0) -> DynamicalMap:
    """Synthetic qubit map acting diagonally on the Bloch vector.

    Lambda(I) = I and Lambda(sigma_k) = lambdas[k-1] sigma_k; no positivity
    is implied, which makes this useful for constructing counter-cases.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (3,):
        raise DimensionError(f"need three Bloch multipliers, got shape {lam.shape}")
    # S[k d + l, i d + j] = Lambda(E_ij)[k, l] = sum_mu mults_mu sigma_mu[j, i] sigma_mu[k, l] / 2
    # with sigma_0 = I, since tr(sigma_mu E_ij) = sigma_mu[j, i].
    sigmas = np.concatenate([np.eye(2, dtype=complex)[None], _SIGMA])
    mults = 0.5 * np.concatenate([[1.0], lam])
    s = np.einsum("m,mkl,mji->klij", mults, sigmas, sigmas).reshape(4, 4)
    return DynamicalMap(s, time=time)


@dataclass
class ChoiMatrix:
    """Unnormalized Choi matrix sum_ij E_ij (x) Lambda(E_ij); trace = d."""

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if max_abs(self.matrix - self.matrix.conj().T) > 1e-10:
            raise ValidationError("Choi matrix must be Hermitian")
        if abs(np.trace(self.matrix) - self.dim) > 1e-9:
            raise ValidationError("Choi matrix of a trace-preserving map must have trace d")


def _reshuffle(s, d: int) -> np.ndarray:
    # Choi-Jamiolkowski reshuffle: C[(i, k), (j, l)] = Lambda(E_ij)[k, l] = S[k d + l, i d + j].
    return s.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def choi_matrix(m: DynamicalMap) -> ChoiMatrix:
    return ChoiMatrix(_reshuffle(m.superoperator, m.dim), dim=m.dim)


@dataclass
class CpVerdict:
    cp: bool
    min_eigenvalue: float  # divided by d (spectrum summing to 1)
    min_eigenvalue_raw: float
    witness: np.ndarray


def cp_verdict(choi: ChoiMatrix, tol: float = 1e-9) -> CpVerdict:
    """Complete-positivity test: the Choi matrix must be positive semidefinite."""
    values, vectors = hermitian_eigen(choi.matrix)
    raw = float(values[0])
    normalized = raw / choi.dim
    return CpVerdict(
        cp=bool(normalized >= -tol),
        min_eigenvalue=normalized,
        min_eigenvalue_raw=raw,
        witness=vectors[:, 0].copy(),
    )


@dataclass
class PositivityVerdict:
    positive_on_samples: bool
    min_output_eigenvalue: float


def positivity_verdict(m: DynamicalMap, samples: int, seed: int, tol: float = 1e-9) -> PositivityVerdict:
    """Apply the map to Haar-random pure states and report the worst output eigenvalue."""
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    psi = random_state(seed, m.dim, np.arange(samples))
    rho = np.einsum("...i,...j->...ij", psi, psi.conj())
    out = apply_map(m, rho)
    min_eig = float(np.min(np.linalg.eigvalsh(out)))
    return PositivityVerdict(positive_on_samples=bool(min_eig >= -tol), min_output_eigenvalue=min_eig)
