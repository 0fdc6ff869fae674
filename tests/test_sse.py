import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ssesim import sse
from ssesim.algebra import bloch_from_density, bloch_from_state, bloch_standard_error, pauli, random_state
from ssesim.algebra import state_from_bloch
from ssesim.errors import DimensionError, StepSizeError, ValidationError
from ssesim.master import MasterGenerator, analytic_pauli_solution, integrate_master
from ssesim.param import redundancy_witness
from ssesim.sse import (
    GeneralDiffusiveModel,
    NonCpQubitModel,
    ensemble_density,
    identity_residual,
    increment,
    pairwise_sum,
    simulate_trajectory,
    simulate_with_noise,
)

POLE = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _projectors(states):
    return np.einsum("...i,...j->...ij", states, states.conj())


def _wiener_block(seed, trajectory, steps, channels, dt):
    # One trajectory's Wiener increments, shape (steps, channels).
    return sse._wiener(sse._wiener_key(seed, trajectory), np.arange(steps)[:, None], np.arange(channels), dt)


# ---------------------------------------------------------------- noise


def test_wiener_moments():
    dw = _wiener_block(77, 5, 100000, 1, 1e-3)[:, 0]
    assert abs(dw.mean()) <= 4.0 * np.sqrt(1e-3 / 100000.0)
    assert abs(dw.var() - 1e-3) <= 0.05 * 1e-3


def test_wiener_is_counter_based():
    key = sse._wiener_key(5, 9)
    block = _wiener_block(5, 9, 20, 3, 1e-3)
    per_step = np.array([sse._wiener(key, s, np.arange(3), 1e-3) for s in range(20)])
    assert np.array_equal(block, per_step)
    # draws depend only on the coordinates, not on previous calls
    assert np.array_equal(sse._wiener(key, 7, np.arange(3), 1e-3), block[7])


def test_wiener_streams_differ_across_trajectories():
    a = _wiener_block(5, 0, 10, 1, 1e-3)
    b = _wiener_block(5, 1, 10, 1, 1e-3)
    assert np.min(np.abs(a - b)) > 0.0


# ---------------------------------------------------------------- perp state


def _perp_state(psi):
    # psi_perp of unit states (..., 2) from the kernel's `_perp`, formed as `identity_residual` forms it.
    psi = np.asarray(psi, dtype=complex)
    n = bloch_from_state(psi)
    return np.stack(sse._perp(psi[..., 0], psi[..., 1], n[..., 0], n[..., 1]), axis=-1)


def test_perp_at_pole_uses_fallback():
    assert np.array_equal(_perp_state(POLE), np.array([0.0, 1.0], dtype=complex))


def test_perp_on_equator():
    perp = _perp_state(PLUS)
    assert abs(np.vdot(PLUS, perp)) <= 1e-15
    assert np.allclose(bloch_from_state(perp), [-1.0, 0.0, 0.0], atol=1e-14)


def test_perp_sweep_norm_and_orthogonality():
    psi = random_state(21, 2, np.arange(1000))
    perp = _perp_state(psi)
    norms = np.einsum("bi,bi->b", perp.conj(), perp).real
    overlaps = np.abs(np.einsum("bi,bi->b", psi.conj(), perp))
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert np.max(overlaps) <= 1e-12


@st.composite
def _unit_states(draw, kinds=("any", "north", "south"), pole_offset=1e-6):
    # Any state, or one within pole_offset of |0> (north) or |1> (south): the
    # component that vanishes at the pole has modulus sin(eps) <= pole_offset.
    kind = draw(st.sampled_from(kinds))
    if kind == "any":
        theta = draw(st.floats(0.0, np.pi))
    else:
        eps = draw(st.floats(0.0, pole_offset))
        theta = 2.0 * eps if kind == "north" else np.pi - 2.0 * eps
    phi, gamma = draw(st.floats(0.0, 2.0 * np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    return np.exp(1j * gamma) * np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


@settings(max_examples=60)
@given(psi=_unit_states(kinds=("north", "south"), pole_offset=4e-7))
def test_perp_state_at_the_poles_is_the_unit_orthogonal_fallback(psi):
    # Within 4e-7 of a pole, 1 - n_z^2 <= 6.4e-13 is below the 1e-12 pole tolerance.
    perp = _perp_state(psi)
    assert np.array_equal(perp, np.array([-psi[1].conj(), psi[0].conj()]))
    assert abs(np.vdot(psi, perp)) <= 1e-15
    assert abs(np.vdot(perp, perp).real - 1.0) <= 1e-15


def test_perp_rejects_wrong_dimension():
    # psi_perp is defined for qubits only: both the non-CP noise built on it and its Bloch form refuse a qutrit.
    qutrit = np.ones(3, dtype=complex) / np.sqrt(3.0)
    with pytest.raises(DimensionError, match=r"need states \(\.\.\., 2\)"):
        increment(qutrit, NonCpQubitModel(), np.zeros(1), 1e-3)
    with pytest.raises(DimensionError, match="Bloch conversion requires qubit states, got dim 3"):
        _perp_state(qutrit)


# ---------------------------------------------------------------- increments


def test_noncp_increment_plus_state_is_stationary():
    prop = increment(PLUS, NonCpQubitModel(), dw=np.array([0.37]), dt=1e-3)
    assert np.max(np.abs(prop - PLUS)) <= 1e-15


def test_noncp_increment_at_pole():
    dt, dw = 1e-3, 0.02
    prop = increment(POLE, NonCpQubitModel(), dw=np.array([dw]), dt=dt)
    expected = POLE * (1.0 - dt) + np.sqrt(2.0) * dw * np.array([0.0, 1.0])
    assert np.max(np.abs(prop - expected)) <= 1e-15


def test_noncp_increment_continuity():
    psi = random_state(4, 2, 0)
    for dt in (1e-2, 1e-4, 1e-6):
        prop = increment(psi, NonCpQubitModel(), dw=np.zeros(1), dt=dt)
        assert np.max(np.abs(prop - psi)) <= 4.0 * dt


def test_ito_norm_balance():
    # Antithetic +-sqrt(dt) average of ||psi + dpsi||^2 - 1 cancels the noise
    # term exactly; for rates (1, 1, -1) the remaining drift balance is zero,
    # leaving only the O(dt^2) drift-squared term.
    dt = 1e-3
    model = NonCpQubitModel()
    psi = random_state(21, 2, np.arange(1000))
    root = np.full((1000, 1), np.sqrt(dt))
    plus = increment(psi, model, root, dt)
    minus = increment(psi, model, -root, dt)
    norm_plus = np.einsum("bi,bi->b", plus.conj(), plus).real
    norm_minus = np.einsum("bi,bi->b", minus.conj(), minus).real
    residual = np.abs((norm_plus + norm_minus) / 2.0 - 1.0)
    assert np.max(residual) <= 5.0 * dt * dt


def test_general_increment_eigenstate_is_stationary():
    model = GeneralDiffusiveModel(np.zeros((2, 2)), (np.sqrt(0.7) * pauli(3),), np.eye(1))
    prop = increment(POLE, model, np.array([0.4]), 1e-3)
    assert np.max(np.abs(prop - POLE)) <= 1e-15


def test_general_increment_closed_system_limit():
    zero_op = np.zeros((2, 2), dtype=complex)
    model = GeneralDiffusiveModel(pauli(3), (zero_op,), np.eye(1))
    psi = random_state(11, 2, 0)
    dt = 1e-3
    prop = increment(psi, model, np.array([0.0]), dt)
    expected = psi - 1j * (pauli(3) @ psi) * dt
    assert np.max(np.abs(prop - expected)) <= 1e-16


def test_general_increment_matches_naive_loop():
    rng = np.random.default_rng(0)
    h = np.array([[0.4, 0.1 + 0.2j], [0.1 - 0.2j, -0.3]])
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    lindblads = (0.8 * sm, 0.5 * pauli(3), 0.3 * pauli(1))
    u = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))[0]
    model = GeneralDiffusiveModel(h, lindblads, u)
    psi = random_state(1, 2, 0)
    dw = rng.normal(size=5) * np.sqrt(1e-3)
    dt = 1e-3

    drift = -1j * (h @ psi)
    for op in lindblads:
        e = np.vdot(psi, op @ psi)
        drift = drift - 0.5 * (
            op.conj().T @ op @ psi - 2.0 * np.conj(e) * (op @ psi) + abs(e) ** 2 * psi
        )
    noise = np.zeros(2, dtype=complex)
    for k in range(5):
        for j, op in enumerate(lindblads):
            e = np.vdot(psi, op @ psi)
            noise = noise + u[k, j] * ((op @ psi) - e * psi) * dw[k]
    expected = psi + drift * dt + noise
    assert np.max(np.abs(increment(psi, model, dw, dt) - expected)) <= 1e-15


def test_general_increment_rejects_wrong_noise_length():
    model = GeneralDiffusiveModel(np.zeros((2, 2)), (pauli(1), pauli(2)), np.eye(2))
    with pytest.raises(DimensionError):
        increment(PLUS, model, np.zeros(3), 1e-3)


_QUBIT_MODELS = [
    NonCpQubitModel(),
    GeneralDiffusiveModel(np.zeros((2, 2)), (pauli(1), pauli(2)), np.eye(3)[:, :2]),
]


@pytest.mark.parametrize("model", _QUBIT_MODELS, ids=["noncp", "general"])
def test_increment_rejects_an_unnormalized_state(model):
    with pytest.raises(ValidationError, match="not normalized"):
        increment(np.array([2.0, 0.0]), model, np.zeros(model.n_channels), 1e-3)


@pytest.mark.parametrize("model", _QUBIT_MODELS, ids=["noncp", "general"])
def test_increment_rejects_wrong_state_or_increment_widths(model):
    qutrit = np.ones(3, dtype=complex) / np.sqrt(3.0)
    with pytest.raises(DimensionError):
        increment(qutrit, model, np.zeros(model.n_channels), 1e-3)
    with pytest.raises(DimensionError):
        increment(PLUS, model, np.zeros(model.n_channels + 1), 1e-3)
    with pytest.raises(DimensionError):
        increment(PLUS, model, 0.0, 1e-3)
    with pytest.raises(DimensionError):
        increment(1.0, model, np.zeros(model.n_channels), 1e-3)
    with pytest.raises(DimensionError, match="do not broadcast"):
        increment(random_state(1, 2, np.arange(3)), model, np.zeros((2, model.n_channels)), 1e-3)


@pytest.mark.parametrize("model", _QUBIT_MODELS, ids=["noncp", "general"])
def test_increment_of_an_empty_batch_is_empty(model):
    out = increment(np.zeros((0, 2)), model, np.zeros(model.n_channels), 1e-3)
    assert out.shape == (0, 2) and out.dtype == complex


def test_general_model_rejects_non_isometry():
    with pytest.raises(ValidationError):
        GeneralDiffusiveModel(np.zeros((2, 2)), (pauli(1),), np.array([[0.5]]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GeneralDiffusiveModel(np.zeros((2, 2)), (), np.eye(1)), ValidationError, "need at least one Lindblad operator"),
        (
            lambda: GeneralDiffusiveModel(np.zeros((2, 2)), (pauli(1), pauli(2)), np.eye(3)),
            DimensionError,
            r"noise matrix must be N x n with n = 2 operators, got shape \(3, 3\)",
        ),
        (
            lambda: simulate_with_noise(NonCpQubitModel(), POLE, 1e-3, np.zeros((3, 2))),
            DimensionError,
            r"increments must have shape \(steps, 1\), got \(3, 2\)",
        ),
        (lambda: pairwise_sum(np.zeros((0, 3))), ValidationError, "cannot pairwise-reduce an empty axis"),
    ],
    ids=["no-lindblads", "noise-width", "noncp-increments", "empty-sum"],
)
def test_malformed_input_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_general_model_rejects_wide_noise_matrix():
    with pytest.raises(ValidationError):
        GeneralDiffusiveModel(np.zeros((2, 2)), (pauli(1), pauli(2)), np.eye(2)[:1])


# ---------------------------------------------------------------- stepping


def _one_step(psi, dw, dt):
    # The state after one renormalized Euler step of the non-CP model from psi, driven by dw.
    return simulate_with_noise(NonCpQubitModel(), psi, dt, [dw]).states[1]


def test_step_is_identity_without_time_and_noise():
    psi = random_state(2, 2, 5)
    assert np.array_equal(_one_step(psi, [0.0], 0.0), psi)


def test_step_at_pole_without_noise():
    assert np.max(np.abs(_one_step(POLE, [0.0], 1e-3) - POLE)) <= 1e-15


def test_step_output_is_normalized():
    # One step of a component-major batch of 100 states, all driven by one draw.
    psi = random_state(6, 2, np.arange(100)).T
    dw = sse._wiener(sse._wiener_key(6, 0), 0, np.arange(1), 1e-3)[:, None] * np.ones((1, 100))
    _, (out, _) = sse._path(NonCpQubitModel().propose, psi, [dw], 1e-3)
    norms = np.einsum("ib,ib->b", out.conj(), out).real
    assert np.max(np.abs(norms - 1.0)) <= 1e-15


def test_step_failure_on_collapsed_norm():
    # Without noise, only the pole of the batch falls below norm^2 0.01 at dt = 0.99.
    psi = np.array([PLUS, PLUS, POLE]).T
    path = sse._path(NonCpQubitModel().propose, psi, [np.zeros((1, 3))], 0.99, np.arange(3))
    with pytest.raises(StepSizeError, match="^trajectory 2 collapsed at step 0:"):
        list(path)


def test_trajectory_zero_time():
    traj = simulate_trajectory(NonCpQubitModel(), POLE, 0.0, 1e-3, seed=1)
    assert traj.states.shape == (1, 2)
    assert np.array_equal(traj.states[0], POLE)


def test_trajectory_determinism():
    a = simulate_trajectory(NonCpQubitModel(), POLE, 0.1, 1e-3, seed=5, trajectory_id=3)
    b = simulate_trajectory(NonCpQubitModel(), POLE, 0.1, 1e-3, seed=5, trajectory_id=3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.norm_drift, b.norm_drift)


def test_trajectory_states_stay_normalized():
    traj = simulate_trajectory(NonCpQubitModel(), PLUS, 0.2, 1e-3, seed=9)
    norms = np.einsum("si,si->s", traj.states.conj(), traj.states).real
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_trajectory_norm_drift_time_average():
    dt = 1e-3
    traj = simulate_trajectory(NonCpQubitModel(), POLE, 1.0, dt, seed=13)
    assert abs(np.mean(traj.norm_drift)) <= 5.0 * dt


def test_trajectory_step_failure_reports_index():
    with pytest.raises(StepSizeError, match="step 0"):
        simulate_with_noise(NonCpQubitModel(), POLE, 0.99, np.zeros((1, 1)))


@pytest.mark.parametrize(
    "model, noise",
    [
        # At the pole the increment sqrt(2) n_z psi_perp dW carries the whole overflow.
        (NonCpQubitModel(), np.array([[1e200]])),
        (GeneralDiffusiveModel(1e200 * pauli(1), (pauli(3),), np.eye(1)), np.zeros((2, 1))),
    ],
    ids=["noncp", "general"],
)
def test_overflowing_norm_fails_at_its_step(model, noise):
    # norm^2 overflows to inf at step 0; dividing by it would leave a zero state.
    with pytest.raises(StepSizeError, match="step 0"):
        simulate_with_noise(model, POLE, 1e-3, noise)


# With H = 0, L = sigma_z and dt = 2, a step maps an equator state psi to dW sigma_z psi:
# a path collapses at its first step with |dW| < 0.1.
_EQUATOR_COLLAPSE = GeneralDiffusiveModel(np.zeros((2, 2)), (pauli(3),), np.eye(1))


@pytest.mark.parametrize(
    "run, message",
    [
        # The pole stays put without noise; the overflowing increment of step 3 collapses it.
        (
            lambda: simulate_with_noise(NonCpQubitModel(), POLE, 1e-3, [[0.0], [0.0], [0.0], [1e200]]),
            "the trajectory collapsed at step 3",
        ),
        # Among trajectories 0-29 of seed 11 the first collapse is trajectory 19's, at step 2.
        (
            lambda: ensemble_density(_EQUATOR_COLLAPSE, PLUS, 20.0, 2.0, 30, seed=11, grid_points=1),
            "trajectory 19 collapsed at step 2",
        ),
        # Among witness cases 100-109 of seed 4 the first collapse is case 104's, at step 6.
        (
            lambda: redundancy_witness(
                [np.eye(1)] * 10, [-np.eye(1)] * 10, np.zeros((2, 2)), (pauli(3),), [PLUS] * 10,
                20.0, 2.0, seed=4, trajectory_id=np.arange(100, 110),
            ),
            "witness case 104 collapsed at step 6",
        ),
    ],
    ids=["simulate_with_noise", "ensemble_density", "redundancy_witness"],
)
def test_every_stepping_path_names_its_collapse(run, message):
    with pytest.raises(StepSizeError, match=f"^{message}: proposed norm"):
        run()


def test_an_ensemble_collapse_names_the_trajectory_that_fails_alone():
    # The trajectory that the ensemble_density case above names, stepped alone, fails at the same step
    # and names itself as the ensemble does.
    with pytest.raises(StepSizeError, match="^trajectory 19 collapsed at step 2:"):
        simulate_trajectory(_EQUATOR_COLLAPSE, PLUS, 20.0, 2.0, seed=11, trajectory_id=19)


# sha256 of states.tobytes() + norm_drift.tobytes() of simulate_trajectory(model, psi0, 0.25, 1e-3,
# seed=7, trajectory_id=2).  Block-versus-lone equality would still pass if both moved together.
_LONE_TRAJECTORY_SHA256 = {
    "noncp-0.6-0.8i": "57b81d2704b32b71d18f919a3155bcbc4d7b54fa97e9b045d3399e9150ad7eba",
    "noncp-pole": "509174e58b0a29c12fb350ebfeaed3bf1334dbf2a2345e21dbf8a14f3974ebfb",
    "general-plus": "213a5031f29f9d79dfcf96cb29cb83d0c7d951cb12c1d3c8cc10e9517db34194",
}


@pytest.mark.parametrize("case", sorted(_LONE_TRAJECTORY_SHA256))
def test_lone_trajectory_bits_are_pinned(case):
    model, psi0 = {
        "noncp-0.6-0.8i": (NonCpQubitModel(), np.array([0.6, 0.8j])),
        "noncp-pole": (NonCpQubitModel(), POLE),
        "general-plus": (_GENERAL, PLUS),
    }[case]
    traj = simulate_trajectory(model, psi0, 0.25, 1e-3, seed=7, trajectory_id=2)
    digest = hashlib.sha256(traj.states.tobytes() + traj.norm_drift.tobytes()).hexdigest()
    assert digest == _LONE_TRAJECTORY_SHA256[case]


def test_trajectory_rejects_non_multiple_horizon():
    with pytest.raises(ValidationError):
        simulate_trajectory(NonCpQubitModel(), POLE, 0.25, 1e-3 * 1.0001, seed=0)


def test_plus_state_is_a_fixed_point_of_the_unraveling():
    traj = simulate_trajectory(NonCpQubitModel(), PLUS, 0.5, 1e-3, seed=17)
    proj = _projectors(traj.states)
    assert np.max(np.abs(proj - _projectors(PLUS))) <= 1e-12


def test_euler_paths_reach_the_exact_solution_at_strong_order_one_half():
    # The non-CP noise sqrt(2) n_z psi_perp dW only turns the Bloch vector about z, so on every path
    # n_z(t) = n_z(0) e^{-4t} and the azimuth is phi(0) - int 2 sqrt(2) z / r dW with r = sqrt(1 - z^2),
    # a Wiener integral of a known function.  Euler batches from (0.6, 0, 0.8) at dt 4e-3 halved four
    # times step with the sums of one set of increments, on whose grid, 4x finer than the finest level,
    # the solution is evaluated.  The rms path-maximum errors of the azimuth and of n_z then fall as
    # dt^(1/2) (Kloeden & Platen, Numerical Solution of SDEs, ch. 10): fitted over 1000 paths to
    # t = 0.128, the orders read 0.462-0.494 (sd 0.011) and 0.469-0.490 (sd 0.006) over generator
    # seeds 0-11, so each margin is the largest miss plus two sd.  A drift whose n_z term is 10 %
    # short reads an n_z order of 0.436.
    paths, fine, steps = 1000, 4e-3 / 64, 2048
    dw = np.random.default_rng(0).standard_normal((steps, paths)) * np.sqrt(fine)
    z = 0.8 * np.exp(-4.0 * fine * np.arange(steps + 1))
    phase_rate = -2.0 * np.sqrt(2.0) * z[:-1] / np.sqrt(1.0 - z[:-1] ** 2)
    phi = np.concatenate([np.zeros((1, paths)), np.cumsum(phase_rate[:, None] * dw, axis=0)])
    psi0 = np.repeat(state_from_bloch([0.6, 0.0, 0.8])[:, None], paths, axis=1)
    errors = []
    for m in (64, 32, 16, 8, 4):
        increments = dw.reshape(steps // m, m, 1, paths).sum(axis=1)
        states = np.stack([psi for psi, _ in sse._path(NonCpQubitModel().propose, psi0, increments, m * fine)])
        n = bloch_from_state(states.swapaxes(1, 2))
        d_phi = np.angle(np.exp(1j * (np.arctan2(n[..., 1], n[..., 0]) - phi[::m])))
        d_z = n[..., 2] - z[::m, None]
        errors.append([np.sqrt(np.mean(np.max(np.abs(d), axis=0) ** 2)) for d in (d_phi, d_z)])
    orders = np.polyfit(np.log(fine * np.array([64, 32, 16, 8, 4])), np.log(errors), 1)[0]
    assert np.all(np.abs(orders - 0.5) <= [0.06, 0.045]), orders


# ---------------------------------------------------------------- gauge


def _constant_gauge(dchi):
    return lambda psi, dw, dt: dchi


def test_gauge_zero_phase_is_identity():
    psi = random_state(3, 2, 1)
    noise = _wiener_block(3, 1, 50, 1, 1e-3)
    plain = simulate_with_noise(NonCpQubitModel(), psi, 1e-3, noise)
    gauged = simulate_with_noise(NonCpQubitModel(), psi, 1e-3, noise, gauge=_constant_gauge(0.0))
    assert np.array_equal(gauged.states, plain.states)


def test_gauge_leaves_projector_invariant():
    # One step from each state: the gauged state is the plain one times exp(-1.234 i).
    for psi in random_state(3, 2, np.arange(50)):
        plain = simulate_with_noise(NonCpQubitModel(), psi, 1e-3, np.zeros((1, 1)))
        gauged = simulate_with_noise(NonCpQubitModel(), psi, 1e-3, np.zeros((1, 1)), gauge=_constant_gauge(1.234))
        assert np.max(np.abs(_projectors(gauged.states) - _projectors(plain.states))) <= 1e-15


def test_gauged_trajectory_has_identical_projector_path():
    psi0 = np.array([0.6, 0.8j], dtype=complex)

    def gauge(psi, dw, dt):
        return 0.37 + 2.1 * float(dw[0]) + float(psi[0].real)

    plain = simulate_trajectory(NonCpQubitModel(), psi0, 0.25, 1e-3, seed=7, trajectory_id=2)
    gauged = simulate_trajectory(
        NonCpQubitModel(), psi0, 0.25, 1e-3, seed=7, trajectory_id=2, gauge=gauge
    )
    frob = np.sqrt(np.sum(np.abs(_projectors(plain.states) - _projectors(gauged.states)) ** 2, axis=(1, 2)))
    assert np.max(frob) <= 1e-13


# ---------------------------------------------------------------- reduction


def test_pairwise_sum_matches_exact_sum():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(1001, 3))
    assert np.allclose(pairwise_sum(values), values.sum(axis=0), atol=1e-12)


@settings(max_examples=60)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
    log_block=st.integers(min_value=0, max_value=8),
)
def test_pairwise_sum_composes_from_power_of_two_blocks(values, log_block):
    values = np.array(values)
    block = 2**log_block
    parts = [pairwise_sum(values[lo : lo + block]) for lo in range(0, len(values), block)]
    assert pairwise_sum(np.array(parts)) == pairwise_sum(values)


def _reference_pairwise_sum(values):
    # The tree written out over the leading axis: adjacent pairs are added level by level,
    # an odd tail passes through.
    a = np.asarray(values)
    while len(a) > 1:
        m = len(a) // 2
        head = a[0 : 2 * m : 2] + a[1 : 2 * m : 2]
        a = np.concatenate([head, a[2 * m :]]) if len(a) % 2 else head
    return a[0]


@settings(max_examples=40)
@given(n=st.integers(1, 3 * 4096 + 7), log_chunk=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_pairwise_sum_over_rows_is_the_pairwise_sum_of_aligned_chunk_sums(n, log_chunk, seed):
    # The ensemble's tree: each worker sums aligned 2^k-trajectory chunks, of which only
    # the last may be short, and the reduction sums those chunk sums in trajectory order.
    rows = np.random.default_rng(seed).normal(size=(n, 3, 2)).view(complex)
    chunk = 2**log_chunk
    sums = sse._chunk_sums(np.moveaxis(rows, 0, -1), chunk)
    expected = [_reference_pairwise_sum(rows[lo : lo + chunk]) for lo in range(0, n, chunk)]
    assert sums.tobytes() == np.array(expected).tobytes()
    assert pairwise_sum(sums).tobytes() == pairwise_sum(rows).tobytes() == _reference_pairwise_sum(rows).tobytes()


def test_pairwise_sum_is_blocking_invariant():
    rng = np.random.default_rng(3)
    values = rng.normal(size=137)
    whole = pairwise_sum(values)
    for block in (4, 8, 32, 64):
        parts = [pairwise_sum(values[lo : lo + block]) for lo in range(0, 137, block)]
        assert pairwise_sum(np.array(parts)) == whole


# ---------------------------------------------------------------- ensembles


_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_GENERAL = GeneralDiffusiveModel(
    0.7 * pauli(3) + 0.3 * pauli(1),
    (0.8 * _SIGMA_MINUS, 0.5 * pauli(3)),
    np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]], dtype=complex),
)


@pytest.mark.parametrize("model", [NonCpQubitModel(), _GENERAL], ids=["noncp", "general"])
def test_single_trajectory_ensemble_is_pure(model):
    est = ensemble_density(model, POLE, 0.1, 1e-3, 1, seed=5, grid_points=100)
    traj = simulate_trajectory(model, POLE, 0.1, 1e-3, seed=5, trajectory_id=0)
    idx = np.round(est.times / 1e-3).astype(int)
    assert np.array_equal(est.mean_density, _projectors(traj.states[idx]))
    assert np.all(np.isinf(bloch_standard_error(est.density_standard_error)))


def test_report_grid_arrays_are_sized_by_grid_points(monkeypatch):
    # 2000 steps, 4 report points: no array handed to a range may scale with the steps.
    tasks = []
    range_partials = sse._range_partials

    def recorder(task):
        tasks.append(task)
        return range_partials(task)

    monkeypatch.setattr(sse, "_range_partials", recorder)
    est = ensemble_density(NonCpQubitModel(), PLUS, 2.0, 1e-3, 3, seed=1, grid_points=4)
    assert tasks
    for task in tasks:
        assert max(x.size for x in task if isinstance(x, np.ndarray)) <= 4 + 1
    assert np.allclose(est.times, [0.5, 1.0, 1.5, 2.0])


def test_ensemble_thread_count_does_not_change_bytes():
    args = (NonCpQubitModel(), POLE, 0.05, 1e-3, 600, 42)
    serial = ensemble_density(*args, threads=1)
    threaded = ensemble_density(*args, threads=4)
    assert serial.mean_density.tobytes() == threaded.mean_density.tobytes()
    se = [bloch_standard_error(est.density_standard_error) for est in (serial, threaded)]
    assert se[0].tobytes() == se[1].tobytes()


def test_pool_size_is_clamped_to_cpus_and_ranges(serial_pool):
    args = (NonCpQubitModel(), POLE, 0.002, 1e-3)
    serial = ensemble_density(*args, 3, 42)
    # Three trajectories make three one-trajectory ranges on 8 CPUs.
    assert ensemble_density(*args, 3, 42, threads=10000).mean_density.tobytes() == serial.mean_density.tobytes()
    ensemble_density(*args, 3, 42, threads=2)
    ensemble_density(*args, 3 * 4096, 42, threads=10000)
    assert serial_pool.sizes == [3, 2, 8]
    serial_pool.cpus = 1
    ensemble_density(*args, 3 * 4096, 42, threads=4)
    assert serial_pool.sizes == [3, 2, 8]
    # No thread count below one starts a pool or changes a bit.
    serial_pool.cpus = 8
    for threads in (0, -3):
        assert ensemble_density(*args, 3, 42, threads=threads).mean_density.tobytes() == serial.mean_density.tobytes()
    assert serial_pool.sizes == [3, 2, 8]


def test_levels_share_one_pool(serial_pool):
    dts = [4e-3, 2e-3, 1e-3]
    args = (NonCpQubitModel(), POLE, 0.008)
    estimates = ensemble_density(*args, dts, 4096 + 100, 42, threads=10000)  # eight ranges per level
    assert serial_pool.sizes == [8]
    # Every level's ranges, in level order, each level's tiling its trajectories in order.
    assert [task[3] for task in serial_pool.tasks] == [dt for dt in dts for _ in range(8)]
    for level in range(3):
        bounds = [(task[6], task[7]) for task in serial_pool.tasks[8 * level : 8 * level + 8]]
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]] and bounds[-1][1] == 4096 + 100
    assert isinstance(estimates, list) and len(estimates) == len(dts)
    for dt, est in zip(dts, estimates):
        alone = ensemble_density(*args, dt, 4096 + 100, 42)
        assert isinstance(alone, sse.EnsembleEstimate)
        assert est.times.tobytes() == alone.times.tobytes()
        assert est.mean_density.tobytes() == alone.mean_density.tobytes()
        assert est.density_standard_error.tobytes() == alone.density_standard_error.tobytes()


def test_default_trajectories_on_two_cpus_split_into_ranges_one_chunk_apart(serial_pool):
    serial_pool.cpus = 2
    ensemble_density(NonCpQubitModel(), POLE, 1e-3, 1e-3, 20000, 42, threads=2)
    (_, _, _, _, _, _, lo0, hi0, chunk), (_, _, _, _, _, _, lo1, hi1, _) = serial_pool.tasks
    assert (lo0, hi1) == (0, 20000) and hi0 == lo1 and hi0 % chunk == 0
    assert abs((hi0 - lo0) - (hi1 - lo1)) <= chunk


def test_each_worker_is_handed_its_batches_as_its_one_range(serial_pool):
    # Two batch widths and one trajectory on 2 CPUs: two batches per worker, four per step size,
    # handed out two at a time.
    serial_pool.cpus = 2
    n, dts = 2 * sse._BATCH_WIDTH + 1, [2e-3, 1e-3]
    args = (NonCpQubitModel(), POLE, 2e-3, dts, n, 42)
    pooled, serial = ensemble_density(*args, threads=2), ensemble_density(*args, threads=1)
    assert serial_pool.chunksizes == [2] and len(serial_pool.tasks) == 2 * 4
    for level, dt in enumerate(dts):
        tasks = serial_pool.tasks[4 * level : 4 * level + 4]
        assert {task[3] for task in tasks} == {dt}
        bounds = [(task[6], task[7]) for task in tasks]
        assert [lo for lo, _ in bounds[1:]] == [hi for _, hi in bounds[:-1]]
        # Each worker's two batches span the range of its even share.
        assert [bounds[0][0], bounds[1][1], bounds[3][1]] == sse._cuts(n, 2, tasks[0][8])
    for a, b in zip(pooled, serial):
        assert a.mean_density.tobytes() == b.mean_density.tobytes()
        assert a.density_standard_error.tobytes() == b.density_standard_error.tobytes()
    # A batch is then at least half a batch width wide, wider than a chunk, so none is empty.
    assert sse._BATCH_WIDTH >= 2 * sse._MAX_CHUNK


def test_a_pool_that_cannot_start_its_processes_steps_serially(serial_pool, monkeypatch):
    # Without subprocess support the pool's map raises OSError, and every batch steps in this process.
    def no_subprocesses(fn, tasks, chunksize):
        raise OSError("no subprocess support")

    def pool_without_subprocesses(workers, stand_in=sse._process_pool):
        pool = stand_in(workers)
        pool.map = no_subprocesses
        return pool

    serial_pool.cpus = 2
    monkeypatch.setattr(sse, "_process_pool", pool_without_subprocesses)
    args = (NonCpQubitModel(), POLE, 0.05, 1e-3, 600, 42)
    fallback, serial = ensemble_density(*args, threads=2), ensemble_density(*args, threads=1)
    assert serial_pool.sizes == [2] and serial_pool.tasks == []
    assert fallback.mean_density.tobytes() == serial.mean_density.tobytes()
    assert fallback.density_standard_error.tobytes() == serial.density_standard_error.tobytes()


@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_traj=st.integers(1, 3 * 4096 + 7),
    cpus=st.integers(1, 8),
    threads=st.integers(1, 10),
    model=st.sampled_from([NonCpQubitModel(), _GENERAL]),
    dt=st.sampled_from([1e-3, [2e-3, 1e-3]]),
)
def test_ensemble_bytes_do_not_depend_on_cpus_or_threads(serial_pool, n_traj, cpus, threads, model, dt):
    serial_pool.cpus = cpus
    args = (model, PLUS, 2e-3, dt, n_traj, 7)
    pooled, serial = (ensemble_density(*args, grid_points=2, threads=t) for t in (threads, 1))
    for a, b in zip(*(est if isinstance(est, list) else [est] for est in (pooled, serial))):
        assert a.mean_density.tobytes() == b.mean_density.tobytes()
        assert a.density_standard_error.tobytes() == b.density_standard_error.tobytes()


@pytest.mark.parametrize("dt", [[[1e-3]], np.full((2, 1), 1e-3)])
def test_ensemble_refuses_a_step_size_array_of_two_or_more_dimensions(dt):
    with pytest.raises(DimensionError, match=r"1-D sequence .* got shape \((1|2), 1\)"):
        ensemble_density(NonCpQubitModel(), POLE, 0.01, dt, 3, seed=1)


def test_ensemble_mean_density_is_physical():
    est = ensemble_density(NonCpQubitModel(), POLE, 0.1, 1e-3, 500, seed=2)
    traces = np.einsum("gii->g", est.mean_density).real
    herm = np.max(np.abs(est.mean_density - est.mean_density.conj().swapaxes(1, 2)))
    assert np.max(np.abs(traces - 1.0)) <= 1e-10
    assert herm <= 1e-10


def test_ensemble_tracks_master_equation():
    est = ensemble_density(NonCpQubitModel(), POLE, 0.1, 1e-3, 4000, seed=31)
    reference = analytic_pauli_solution(np.array([0.0, 0.0, 1.0]), (1, 1, -1), est.times)
    deviation = np.abs(bloch_from_density(est.mean_density) - reference)
    assert np.all(deviation <= 3.0 * bloch_standard_error(est.density_standard_error) + 2.0 * 1e-3)


def test_ensemble_conserves_plus_state_mean():
    est = ensemble_density(NonCpQubitModel(), PLUS, 0.2, 1e-3, 200, seed=8)
    assert np.max(np.abs(bloch_from_density(est.mean_density)[:, 0] - 1.0)) <= 1e-10


def test_general_ensemble_matches_lindblad_integration():
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    h = 0.7 * pauli(3) + 0.3 * pauli(1)
    lindblads = (0.8 * sm, 0.5 * pauli(3))
    u = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]], dtype=complex)
    model = GeneralDiffusiveModel(h, lindblads, u)
    est = ensemble_density(model, POLE, 0.2, 1e-3, 8000, seed=9, threads=2)

    gen = MasterGenerator(h, tuple((1.0, op) for op in lindblads))
    rho = np.outer(POLE, POLE.conj())
    prev = 0.0
    reference = []
    for t in est.times:
        rho = integrate_master(rho, gen, t - prev, 1e-3)
        reference.append([2 * rho[1, 0].real, 2 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real])
        prev = t
    deviation = np.abs(bloch_from_density(est.mean_density) - np.asarray(reference))
    assert np.all(deviation <= 3.0 * bloch_standard_error(est.density_standard_error) + 2.0 * 1e-3)


def test_ensemble_rejects_zero_trajectories():
    with pytest.raises(ValidationError):
        ensemble_density(NonCpQubitModel(), POLE, 0.1, 1e-3, 0, seed=1)


_LOWER3 = np.diag([1.0, np.sqrt(2.0)], k=1).astype(complex)
_QUTRIT = GeneralDiffusiveModel(
    0.3 * (_LOWER3 + _LOWER3.T) + np.diag([0.0, 0.2, 0.5]),
    (0.7 * _LOWER3, 0.4 * np.diag([1.0, 0.0, -1.0]).astype(complex)),
    np.array([[0.6, 0.0], [0.0, 1.0], [0.8, 0.0]], dtype=complex),
)


def test_qutrit_ensemble_matches_lindblad_integration_and_ignores_threads():
    dt = 1e-3
    psi0 = np.array([0.6, 0.5j, 0.4 + 0.2j]) / np.sqrt(0.81)
    args = (_QUTRIT, psi0, 0.2, dt, 6000, 17)  # three 2048-trajectory blocks at d = 3
    est = ensemble_density(*args, grid_points=8, threads=2)
    serial = ensemble_density(*args, grid_points=8)
    assert est.mean_density.tobytes() == serial.mean_density.tobytes()
    assert est.density_standard_error.tobytes() == serial.density_standard_error.tobytes()

    gen = MasterGenerator(_QUTRIT.hamiltonian, tuple((1.0, op) for op in _QUTRIT.lindblads))
    rho0 = np.outer(psi0, psi0.conj())
    reference = np.array([integrate_master(rho0, gen, t, dt) for t in est.times])
    se = est.density_standard_error
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(est.mean_density - reference)) <= 5.0 * part(se) + 2.0 * dt)
    with pytest.raises(DimensionError):
        bloch_standard_error(est.density_standard_error)


@pytest.mark.parametrize(
    "model, psi0, t_final",
    [(NonCpQubitModel(), POLE, 0.2), (_GENERAL, POLE, 0.2), (NonCpQubitModel(), np.array([0.8, 0.6j]), 0.01)],
    ids=["noncp", "general", "noncp-narrow-spread"],
)
def test_bloch_standard_error_is_the_sample_error_of_trajectory_bloch_vectors(model, psi0, t_final):
    # The ensemble squares deviations from psi0's projector, which loses a few ulps:
    # 8e-16 on n_3 at the pole.  From (0.8, 0.6i), n_3 = 0.28 spreads by about 3e-4
    # at t = 0.01, and squares summed about zero were off there by 4.8e-14.
    dt, n = 1e-3, 40
    est = ensemble_density(model, psi0, t_final, dt, n, seed=4, grid_points=4)
    idx = np.round(est.times / dt).astype(int)
    paths = [simulate_trajectory(model, psi0, t_final, dt, seed=4, trajectory_id=i) for i in range(n)]
    bloch = bloch_from_state(np.array([p.states[idx] for p in paths]))
    expected = np.std(bloch, axis=0, ddof=1) / np.sqrt(n)
    assert np.max(np.abs(bloch_standard_error(est.density_standard_error) - expected)) <= 1e-14


def test_ensemble_above_the_byte_bound_is_refused_before_stepping(monkeypatch):
    # 245 chunks of at most 4096 trajectories, each with two partial sums at 10^5 report times: 3.1 GB.
    def no_stepping(task):
        raise AssertionError("stepped a range before checking the memory bound")

    monkeypatch.setattr(sse, "_range_partials", no_stepping)
    with pytest.raises(ValidationError, match=str(sse.MAX_ENSEMBLE_BYTES)):
        ensemble_density(NonCpQubitModel(), POLE, 100.0, 1e-3, 10**6, seed=1, grid_points=10**5)


# ---------------------------------------------------------------- kernels


# Four operators: numpy's sum() over a contiguous axis of four or more terms
# pairs them differently from a row-by-row batch sum.
_GENERAL_COMPLEX = GeneralDiffusiveModel(
    0.15 * pauli(1) + 0.2 * pauli(3),
    (0.6 * _SIGMA_MINUS, 0.5 * pauli(3), 0.4 * pauli(1), 0.3 * pauli(2)),
    np.linalg.qr(
        np.random.default_rng(5).normal(size=(5, 4)) + 1j * np.random.default_rng(6).normal(size=(5, 4))
    )[0],
)
_KERNEL_MODELS = [NonCpQubitModel(), _GENERAL, _GENERAL_COMPLEX]

# The benchmark's general model: the witness Hamiltonian, its first three
# Lindblad operators and a 4 x 3 isometry from QR of a seed-1 Gaussian.
_NORMALS = np.random.default_rng(1).standard_normal((2, 4, 3))
_GENERAL_4X3 = GeneralDiffusiveModel(
    0.15 * pauli(3) + 0.2 * pauli(1),
    (0.6 * _SIGMA_MINUS, 0.5 * pauli(3), 0.4 * pauli(1)),
    np.linalg.qr(_NORMALS[0] + 1j * _NORMALS[1])[0],
)


def _ito_generator_residual(model, states, dt):
    # Each proposal is affine in dW, psi + a dt + sum_k b_k dW_k, so its columns at
    # dW = 0 and dW = e_k give a and b_k.  The one-step mean of the projector then
    # moves by dt G + O(dt^2) with G = a psi^dag + psi a^dag + sum_k b_k b_k^dag,
    # which must be the model's generator L applied to |psi><psi|.
    d, n = model.dim, model.n_channels
    proposals = increment(states, model, np.concatenate([np.zeros((1, n)), np.eye(n)])[:, None], dt)
    a, b = (proposals[0] - states) / dt, proposals[1:] - proposals[0]
    drift = np.einsum("si,sj->sij", a, states.conj())
    g = drift + drift.conj().swapaxes(-1, -2) + np.einsum("ksi,ksj->sij", b, b.conj())
    l_rho = _projectors(states).reshape(-1, d * d) @ model.generator._superop.T
    return np.max(np.abs(g - l_rho.reshape(g.shape)))


@pytest.mark.parametrize("model", [NonCpQubitModel(), _GENERAL_4X3, _QUTRIT], ids=["noncp", "general-4x3", "qutrit"])
def test_each_model_unravels_its_generator(model):
    # Deterministic: 200 Haar states and the basis states at five phases, which
    # for a qubit are the poles where psi_perp takes its fallback.
    d = model.dim
    poles = (np.exp(0.4j * np.pi * np.arange(5))[:, None, None] * np.eye(d)).reshape(-1, d)
    states = np.concatenate([random_state(8, d, np.arange(200)), poles])
    assert _ito_generator_residual(model, states, 1e-3) <= 1e-12


@pytest.mark.parametrize("model", _KERNEL_MODELS, ids=["noncp", "general", "general-complex"])
@settings(max_examples=30)
@given(data=st.data())
def test_batch_proposal_matches_each_column_bitwise(model, data):
    # A block steps component-major (d, B) states, and a lone trajectory steps as
    # a batch of one.  Each column must round as it does alone, including next to
    # the poles where psi_perp switches to its fallback.
    states = data.draw(st.lists(_unit_states(), min_size=1, max_size=8))
    k = len(states)
    dw = np.array(
        data.draw(
            st.lists(st.floats(-0.2, 0.2), min_size=k * model.n_channels, max_size=k * model.n_channels)
        )
    ).reshape(model.n_channels, k)
    dt = data.draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
    # Tiled past a few SIMD widths so that the columns are not all loop tails.
    reps = 1 + 64 // k
    batch = model.propose(np.tile(np.array(states).T, reps), np.tile(dw, reps), dt)
    for j in range(k):
        lone = model.propose(np.array(states[j])[:, None], dw[:, j : j + 1].copy(), dt)[:, 0]
        assert np.array_equal(batch[:, j], lone)
        assert np.array_equal(batch[:, j + k * (reps - 1)], lone)


def test_a_general_block_does_not_fault_in_fresh_pages_every_step():
    # A fresh process, such as a pool worker, has glibc's lowest mmap threshold, so
    # per-step temporaries of 128 KiB or more would be mapped and faulted in again
    # on every step: 206k minor faults for this batch, as wide as a worker steps, without
    # the 16 MiB array that `_range_partials` frees first to raise that threshold.
    pytest.importorskip("resource")
    script = textwrap.dedent(
        """
        import resource
        import numpy as np
        from ssesim import sse
        from ssesim.algebra import pauli, report_indices

        lower = np.array([[0.0, 0.0], [0.6, 0.0]])
        model = sse.GeneralDiffusiveModel(
            0.15 * pauli(1) + 0.2 * pauli(3), (lower, 0.5 * pauli(3), 0.4 * pauli(1)),
            np.linalg.qr(np.random.default_rng(1).normal(size=(4, 3)) + 0j)[0],
        )
        psi0 = np.array([1.0, 0.0], dtype=complex)
        sse._range_partials((model, psi0, 1, 1e-3, 1, report_indices(1, 1), 0, 2, 1))  # first-use imports
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sse._range_partials((model, psi0, 1, 1e-3, 250, report_indices(250, 32), 0, sse._BATCH_WIDTH, 2048))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    package_root = str(Path(sse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    # The batch's own arrays are a few MB: this run faulted 360 pages.
    assert int(proc.stdout) < 20000


def test_models_are_frozen():
    # Derived arrays are cached at construction, so the defining fields cannot change.
    assert dataclasses.fields(NonCpQubitModel) == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        _GENERAL.hamiltonian = np.zeros((2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        MasterGenerator(np.zeros((2, 2))).channels = ((5.0, pauli(1)),)


def test_noncp_model_takes_no_rates():
    # It is the paper's model at the fixed (1, 1, -1), with no field: a rate vector or phase is refused.
    with pytest.raises(TypeError):
        NonCpQubitModel((1.0, 1.0, -1.0))
    with pytest.raises(TypeError):
        NonCpQubitModel(rates=(1.0, 1.0, -1.0))
    with pytest.raises(TypeError):
        NonCpQubitModel(perp_phase=0.9)


# ---------------------------------------------------------------- identity


def test_identity_residual_at_pole():
    assert identity_residual(POLE) <= 1e-12


def test_identity_residual_refuses_a_non_qubit_state_through_the_bloch_conversion():
    with pytest.raises(DimensionError, match="Bloch conversion requires qubit states, got dim 3"):
        identity_residual(np.ones(3) / np.sqrt(3.0))


def test_identity_residual_on_equator():
    # n_z = 0 kills the left side and the right side cancels entrywise.
    assert identity_residual(PLUS) <= 1e-15


def test_identity_residual_haar_sweep():
    psi = random_state(7, 2, np.arange(1000))
    residuals = identity_residual(psi)
    assert np.max(residuals) <= 1e-12


def _identity_residual_oracle(psi):
    # The stacked-matmul form: each term is (sigma_k - n_k) |psi><psi| (sigma_k - n_k) formed as matrices.
    n = bloch_from_state(psi)
    proj = _projectors(psi)
    perp = _perp_state(psi)
    lhs = 2.0 * (n[..., 2] ** 2)[..., None, None] * _projectors(perp)
    rhs = np.zeros_like(proj)
    for k, rate in enumerate((1.0, 1.0, -1.0)):
        m_k = pauli(k + 1) - n[..., k, None, None] * np.eye(2)
        rhs = rhs + rate * (m_k @ proj @ m_k)
    return np.max(np.abs(lhs - rhs), axis=(-2, -1))


def test_identity_residual_matches_the_matrix_form():
    # The vector form v_k v_k^dag rounds differently from the matrix products,
    # by a few ulps of the O(1) terms; 1e-15 is 4.5 ulps of 1.
    for seed in (1, 7, 42):
        psi = random_state(seed, 2, np.arange(10000))
        assert np.max(np.abs(identity_residual(psi) - _identity_residual_oracle(psi))) <= 1e-15
    for state in (POLE, PLUS):
        assert identity_residual(state) == _identity_residual_oracle(state)
    assert identity_residual(POLE) == identity_residual(PLUS) == 0.0


def _contracted_identity_residual(psi):
    # The residual with sigma_k psi contracted with the Pauli table and each v_k v_k^dag formed by
    # its own einsum over the trailing axes; `identity_residual` must keep its bits.
    n = bloch_from_state(psi)
    perp = _perp_state(psi)
    lhs = 2.0 * (n[..., 2] ** 2)[..., None, None] * np.einsum("...i,...j->...ij", perp, perp.conj())
    sigma = np.stack([pauli(k) for k in (1, 2, 3)])
    v = np.einsum("kij,...j->...ki", sigma, psi) - n[..., None] * psi[..., None, :]
    t0, t1, t2 = (np.einsum("...i,...j->...ij", v[..., k, :], v[..., k, :].conj()) for k in range(3))
    return np.max(np.abs(lhs - (t0 + t1 - t2)), axis=(-2, -1))


# A pole |0> or |1> times a phase e^{i gamma}.
_PHASED_POLES = st.builds(
    lambda gamma, k: np.exp(1j * gamma) * np.eye(2, dtype=complex)[k],
    st.floats(0.0, 2.0 * np.pi),
    st.sampled_from([0, 1]),
)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 400),
    poles=st.lists(_PHASED_POLES, max_size=6),
    near=st.lists(_unit_states(), max_size=6),
)
def test_identity_residual_keeps_the_bits_of_the_pauli_table_contraction(seed, count, poles, near):
    states = np.concatenate([random_state(seed, 2, np.arange(count)), np.reshape(poles + near, (-1, 2))])
    expected = _contracted_identity_residual(states)
    assert identity_residual(states).tobytes() == expected.tobytes()
    for state, value in zip(states[-3:], expected[-3:]):
        assert np.float64(identity_residual(state)).tobytes() == value.tobytes()
    if len(states) % 2 == 0:
        assert identity_residual(states.reshape(2, -1, 2)).tobytes() == expected.reshape(2, -1).tobytes()
