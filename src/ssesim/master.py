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
    hermiticity_deviation,
    matrix_scale,
    max_abs,
    random_state,
    require_hamiltonian,
    require_hermitian,
    require_rates,
    require_within,
    resolve_steps,
)
from .errors import DimensionError, ValidationError


@dataclass(frozen=True)
class MasterGenerator:
    """Generator L(rho) = K rho + rho K^dag + sum_k c_k A_k rho A_k^dag, whose drift
    operator K = -iH - (1/2) sum_k c_k A_k^dag A_k, kept as `drift`, also drives its SSEs.

    `channels` is a sequence of (rate, operator) pairs; rates may be negative.  H,
    the operators' shapes and the finiteness of rates and operators are checked here.
    L is built once as the d^2 x d^2 matrix acting on row-major vectorized
    matrices, where vec(A rho B) = (A (x) B^T) vec(rho):
    L = K (x) I + I (x) conj(K) + sum_k c_k A_k (x) conj(A_k).
    """

    hamiltonian: np.ndarray
    channels: tuple = ()

    def __post_init__(self):
        h = require_hamiltonian(self.hamiltonian)
        d = h.shape[0]
        ops = [np.asarray(op, dtype=complex) for _, op in self.channels]
        for op in ops:
            if op.shape != (d, d):
                raise DimensionError(f"channel operator shape {op.shape} does not match d = {d}")
        ops = np.array(ops).reshape(-1, d, d)
        rates = np.array([rate for rate, _ in self.channels], dtype=float)
        require_within(~np.isfinite(rates), 0, ValidationError, "channel{at} rate is not finite")
        bad = np.sum(~np.isfinite(ops), axis=(-2, -1))
        require_within(bad, 0, ValidationError, "channel{at} operator has {dev} non-finite entries")
        # Finite inputs may still overflow K or L: the check below refuses it, with no numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            drift = -1j * h - 0.5 * sum(c * (op.conj().T @ op) for c, op in zip(rates, ops))
            # L = sum_j w_j X_j (x) conj(Y_j) over the pairs (K, I), (I, K) and (A_k, A_k).
            left, right = np.stack([drift, np.eye(d), *ops]), np.stack([np.eye(d), drift, *ops]).conj()
            superop = np.einsum("j,jac,jbe->abce", np.concatenate([[1.0, 1.0], rates]), left, right)
        bad = np.sum(~np.isfinite(superop))
        require_within(bad, 0, ValidationError, "generator overflowed: {dev} of its entries are not finite")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", tuple(zip(rates.tolist(), ops)))
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "_superop", superop.reshape(d * d, d * d))

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


def require_density(rho) -> np.ndarray:
    """A Hermitian unit-trace matrix, or a stack (..., d, d) of them, as a complex array."""
    rho = require_hermitian(rho, tol=1e-11, what="density matrix")
    dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    require_within(dev, 1e-11, ValidationError, "density matrix{at} must have unit trace (|tr - 1| = {dev:.3e})")
    return rho


def integrate_master(rho0, gen: MasterGenerator, t: float, dt: float) -> np.ndarray:
    """Evolve a density matrix, or a stack (..., d, d) of them, to time t, a whole multiple of dt:
    the RK4 map `map_grid` at the one time t applied to it."""
    return apply_map(map_grid(gen, t, dt), require_density(rho0))


def analytic_pauli_solution(n0, rates, t) -> np.ndarray:
    """Closed-form Bloch solution n_j(t) = exp(-2 (C - c_j) t) n_j(0), C = sum c.

    `t` may be a scalar or an array; the result has shape (..., 3).  The decays
    are libm's exp, so that they do not depend on the SIMD loops numpy dispatches.
    """
    n0 = np.asarray(n0, dtype=float)
    if n0.shape != (3,):
        raise DimensionError(f"Bloch vector must have shape (3,), got {n0.shape}")
    c = require_rates(rates)
    exponents = -2.0 * (np.sum(c) - c) * np.asarray(t, dtype=float)[..., None]
    values, inverse = np.unique(exponents, return_inverse=True)
    decay = np.array([_exp(x) for x in values.tolist()])[inverse].reshape(exponents.shape)
    return n0 * decay


def _exp(x: float) -> float:
    # libm's exp, or inf where it overflows, as np.exp gives.
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _choi(s: np.ndarray, d: int) -> np.ndarray:
    # Choi-Jamiolkowski reshuffle: C[(i, k), (j, l)] = Lambda(E_ij)[k, l] = S[k d + l, i d + j].
    return np.einsum("...klij->...ikjl", s.reshape(*s.shape[:-2], d, d, d, d)).reshape(s.shape)


@dataclass
class DynamicalMap:
    """Superoperator acting on row-major vectorized d x d matrices: one d^2 x d^2
    map, or a stack (..., d^2, d^2) of them, checked as one array: finite, then
    trace and Hermiticity preserving."""

    superoperator: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        s = np.asarray(self.superoperator, dtype=complex)
        d = math.isqrt(s.shape[-1]) if s.ndim else 0
        if s.shape[-2:] != (d * d, d * d):
            raise DimensionError(f"superoperator must be d^2 x d^2, or a stack of them, got shape {s.shape}")
        self.superoperator = s
        self.dim = d
        bad = np.sum(~np.isfinite(s), axis=(-2, -1))
        require_within(bad, 0, ValidationError, "dynamical map{at} overflowed: {dev} of its entries are not finite")
        tvec = np.eye(d, dtype=complex).reshape(-1)
        dev = max_abs(tvec @ s - tvec, axis=-1) / matrix_scale(s)
        require_within(dev, 1e-9, ValidationError, "dynamical map{at} is not trace preserving")
        # Lambda(E_ij)^dag = Lambda(E_ji) for all i, j is Hermiticity of the Choi matrix.
        dev = hermiticity_deviation(_choi(s, d))
        require_within(dev, 1e-9, ValidationError, "dynamical map{at} is not Hermiticity preserving")


def apply_map(m: DynamicalMap, mats) -> np.ndarray:
    """Apply the map to a matrix or a batch of matrices of shape (..., d, d).

    The map's stack axes broadcast against the operand's batch axes by numpy's
    rule: one map applies to every operand, a stack of g maps applied to one
    matrix gives g outputs, and a (g,) stack applied to (g, d, d) pairs them.
    """
    d = m.dim
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-2:] != (d, d):
        raise DimensionError(f"operand shape {mats.shape} does not match map dimension {d}")
    out = np.einsum("...ab,...b->...a", m.superoperator, mats.reshape(*mats.shape[:-2], d * d))
    return out.reshape(*out.shape[:-1], d, d)


def _each_on_every_map(m: DynamicalMap, mats) -> np.ndarray:
    # Every map of the stack applied to each of the k matrices (k, d, d): shape (k, ..., d, d).
    return apply_map(m, np.expand_dims(mats, tuple(range(1, m.superoperator.ndim - 1))))


def map_grid(gen: MasterGenerator, times, dt: float) -> DynamicalMap:
    """Map at one time, or the maps at an ascending 1-D grid of times as one stack (len(times), d^2, d^2).

    Each time must be a whole multiple of dt, and the grid's step counts must
    strictly increase.  The map at n steps is P^n of the one-step propagator
    P, by binary powering: one running square P, P^2, P^4, ... multiplies,
    from the left, the entries whose n has that bit.  An entry depends on its
    n alone, so it is bitwise the map `map_grid` gives at its time alone, and
    a grid of n steps costs O(log n) matrix products.
    """
    if np.ndim(times) > 1:
        raise DimensionError(f"need one time or a 1-D grid of times, got shape {np.shape(times)}")
    steps = np.array([resolve_steps(t, dt) for t in np.ravel(times)], dtype=np.int64).reshape(np.shape(times))
    if np.any(np.diff(steps.ravel()) <= 0):
        raise ValidationError("grid times must resolve to strictly increasing step counts of dt")
    s = np.tile(np.eye(gen.dim**2, dtype=complex), steps.shape + (1, 1))
    # A large dt L or a growing map may overflow: DynamicalMap refuses it, with no numpy warning.
    # At one time `odd` is a 0-d boolean, so s[odd] is the lone map as a stack of one, or of none.
    with np.errstate(over="ignore", invalid="ignore"):
        power = _rk4_step(gen, dt)
        for bit in range(int(steps.max(initial=0)).bit_length()):
            if bit:
                power = power @ power
            odd = (steps >> bit) & 1 == 1
            s[odd] = power @ s[odd]
    return DynamicalMap(s)


def bloch_block(m: DynamicalMap) -> np.ndarray:
    """3x3 real Bloch block B_kl = tr(sigma_k Lambda(sigma_l)) / 2 of a qubit map, or (..., 3, 3) of a stack."""
    return 0.5 * np.moveaxis(bloch_from_density(_each_on_every_map(m, _SIGMA)), 0, -1)


def pauli_channel_map(lambdas) -> DynamicalMap:
    """Synthetic qubit map acting diagonally on the Bloch vector.

    Lambda(I) = I and Lambda(sigma_k) = lambdas[k-1] sigma_k; no positivity
    is implied, which makes this useful for constructing counter-cases.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (3,):
        raise DimensionError(f"need three Bloch multipliers, got shape {lam.shape}")
    require_within(~np.isfinite(lam), 0, ValidationError, "Bloch multiplier{at} is not finite")
    # S[k d + l, i d + j] = Lambda(E_ij)[k, l] = sum_mu mults_mu sigma_mu[j, i] sigma_mu[k, l] / 2
    # with sigma_0 = I, since tr(sigma_mu E_ij) = sigma_mu[j, i].
    sigmas = np.concatenate([np.eye(2, dtype=complex)[None], _SIGMA])
    mults = 0.5 * np.concatenate([[1.0], lam])
    s = np.einsum("m,mkl,mji->klij", mults, sigmas, sigmas).reshape(4, 4)
    return DynamicalMap(s)


def choi_matrix(m: DynamicalMap) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij E_ij (x) Lambda(E_ij) of a checked map, or the stack of them: Hermitian, trace d."""
    return _choi(m.superoperator, m.dim)


# Eigenvalues down to -_VERDICT_TOL count as nonnegative in both verdicts.
_VERDICT_TOL = 1e-9


@dataclass
class CpVerdict:
    """Per map of the stack, so each field has the stack's batch shape: () for one map."""

    cp: np.ndarray
    min_eigenvalue: np.ndarray  # divided by d (spectrum summing to 1)


def cp_verdict(choi) -> CpVerdict:
    """Complete-positivity test: each d^2 x d^2 Choi matrix of (..., d^2, d^2) must be positive semidefinite."""
    values = hermitian_eigen(choi)[0]
    normalized = values[..., 0] / math.isqrt(values.shape[-1])
    return CpVerdict(cp=normalized >= -_VERDICT_TOL, min_eigenvalue=normalized)


@dataclass
class PositivityVerdict:
    """Per map of the stack, so each field has the stack's batch shape: () for one map."""

    positive_on_samples: np.ndarray
    min_output_eigenvalue: np.ndarray


def positivity_verdict(m: DynamicalMap, samples: int, seed: int) -> PositivityVerdict:
    """Apply a map, or each map of a stack, to Haar-random pure states and report the worst output eigenvalue."""
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    psi = random_state(seed, m.dim, np.arange(samples))
    rho = np.einsum("...i,...j->...ij", psi, psi.conj())
    min_eig = np.linalg.eigvalsh(_each_on_every_map(m, rho)).min(axis=(0, -1))
    return PositivityVerdict(positive_on_samples=min_eig >= -_VERDICT_TOL, min_output_eigenvalue=min_eig)
