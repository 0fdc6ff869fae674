import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssesim import sse
from ssesim.algebra import bloch_from_state, pauli, random_state
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
    perp_state,
    simulate_trajectory,
    simulate_with_noise,
    step,
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


def test_perp_at_pole_uses_fallback():
    assert np.array_equal(perp_state(POLE), np.array([0.0, 1.0], dtype=complex))


def test_perp_on_equator():
    perp = perp_state(PLUS)
    assert abs(np.vdot(PLUS, perp)) <= 1e-15
    assert np.allclose(bloch_from_state(perp), [-1.0, 0.0, 0.0], atol=1e-14)


def test_perp_sweep_norm_and_orthogonality():
    psi = random_state(21, 2, np.arange(1000))
    perp = perp_state(psi)
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
    perp = perp_state(psi)
    assert np.array_equal(perp, np.array([-psi[1].conj(), psi[0].conj()]))
    assert abs(np.vdot(psi, perp)) <= 1e-15
    assert abs(np.vdot(perp, perp).real - 1.0) <= 1e-15


def test_perp_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        perp_state(np.ones(3, dtype=complex) / np.sqrt(3.0))


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
        step(1.0, model, np.zeros(model.n_channels), 1e-3)
    with pytest.raises(DimensionError, match="do not broadcast"):
        step(random_state(1, 2, np.arange(3)), model, np.zeros((2, model.n_channels)), 1e-3)


def test_general_model_rejects_non_isometry():
    with pytest.raises(ValidationError):
        GeneralDiffusiveModel(np.zeros((2, 2)), (pauli(1),), np.array([[0.5]]))


def test_general_model_rejects_wide_noise_matrix():
    with pytest.raises(ValidationError):
        GeneralDiffusiveModel(np.zeros((2, 2)), (pauli(1), pauli(2)), np.eye(2)[:1])


# ---------------------------------------------------------------- stepping


def test_step_is_identity_without_time_and_noise():
    psi = random_state(2, 2, 5)
    assert np.array_equal(step(psi, NonCpQubitModel(), np.zeros(1), 0.0), psi)


def test_step_at_pole_without_noise():
    out = step(POLE, NonCpQubitModel(), np.zeros(1), 1e-3)
    assert np.max(np.abs(out - POLE)) <= 1e-15


def test_step_output_is_normalized():
    psi = random_state(6, 2, np.arange(100))
    dw = sse._wiener(sse._wiener_key(6, 0), 0, np.arange(1), 1e-3) * np.ones((100, 1))
    out = step(psi, NonCpQubitModel(), dw, 1e-3)
    norms = np.einsum("bi,bi->b", out.conj(), out).real
    assert np.max(np.abs(norms - 1.0)) <= 1e-15


def test_step_failure_on_collapsed_norm():
    with pytest.raises(StepSizeError):
        step(POLE, NonCpQubitModel(), np.zeros(1), 0.99)


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
        (lambda: step([PLUS, PLUS, POLE], NonCpQubitModel(), np.zeros((3, 1)), 0.99), "trajectory 2 collapsed at step 0"),
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
    ids=["step", "simulate_with_noise", "ensemble_density", "redundancy_witness"],
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
    assert np.all(np.isinf(est.standard_error))


def test_report_grid_arrays_are_sized_by_grid_points(monkeypatch):
    # 2000 steps, 4 report points: no array handed to a block may scale with the steps.
    tasks = []
    block_partials = sse._block_partials

    def recorder(task):
        tasks.append(task)
        return block_partials(task)

    monkeypatch.setattr(sse, "_block_partials", recorder)
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
    assert serial.standard_error.tobytes() == threaded.standard_error.tobytes()


def test_pool_size_is_clamped_to_cpus_and_blocks(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sse, "ProcessPoolExecutor", SerialPool)
    args = (NonCpQubitModel(), POLE, 0.002, 1e-3, 3 * 4096, 42)  # three blocks
    serial = ensemble_density(*args)
    monkeypatch.setattr(sse.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert ensemble_density(*args, threads=10000).mean_density.tobytes() == serial.mean_density.tobytes()
    ensemble_density(*args, threads=2)
    assert sizes == [3, 2]
    monkeypatch.setattr(sse.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    ensemble_density(*args, threads=4)
    assert sizes == [3, 2]


def test_levels_share_one_pool_and_map_longest_blocks_first(serial_pool):
    dts = [4e-3, 2e-3, 1e-3]
    args = (NonCpQubitModel(), POLE, 0.008)
    estimates = ensemble_density(*args, dts, 4096 + 100, 42, threads=10000)  # two blocks per level
    assert serial_pool.sizes == [6]
    costs = [task[4] * (task[7] - task[6]) for task in serial_pool.tasks]
    assert len(costs) == 6 and costs == sorted(costs, reverse=True)
    assert isinstance(estimates, list) and len(estimates) == len(dts)
    for dt, est in zip(dts, estimates):
        alone = ensemble_density(*args, dt, 4096 + 100, 42)
        assert isinstance(alone, sse.EnsembleEstimate)
        assert est.times.tobytes() == alone.times.tobytes()
        assert est.mean_density.tobytes() == alone.mean_density.tobytes()
        assert est.density_standard_error.tobytes() == alone.density_standard_error.tobytes()


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
    deviation = np.abs(est.bloch() - reference)
    assert np.all(deviation <= 3.0 * est.standard_error + 2.0 * 1e-3)


def test_ensemble_conserves_plus_state_mean():
    est = ensemble_density(NonCpQubitModel(), PLUS, 0.2, 1e-3, 200, seed=8)
    assert np.max(np.abs(est.bloch()[:, 0] - 1.0)) <= 1e-10


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
    deviation = np.abs(est.bloch() - np.asarray(reference))
    assert np.all(deviation <= 3.0 * est.standard_error + 2.0 * 1e-3)


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
        est.standard_error


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
    assert np.max(np.abs(est.standard_error - expected)) <= 1e-14


def test_ensemble_above_the_byte_bound_is_refused_before_stepping(monkeypatch):
    def no_stepping(task):
        raise AssertionError("stepped a block before checking the memory bound")

    monkeypatch.setattr(sse, "_block_partials", no_stepping)
    with pytest.raises(ValidationError, match=str(sse.MAX_ENSEMBLE_BYTES)):
        ensemble_density(NonCpQubitModel(), POLE, 10.0, 1e-3, 10**6, seed=1, grid_points=10**4)


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
    # A block steps component-major (d, B) states; a lone trajectory steps (d,).
    # Both must round alike, including next to the poles where psi_perp
    # switches to its fallback.
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
        lone = model.propose(states[j], dw[:, j].copy(), dt)
        assert np.array_equal(batch[:, j], lone)
        assert np.array_equal(batch[:, j + k * (reps - 1)], lone)


def test_a_general_block_does_not_fault_in_fresh_pages_every_step():
    # A fresh process, such as a pool worker, has glibc's lowest mmap threshold, so
    # per-step temporaries of 128 KiB or more would be mapped and faulted in again
    # on every step: 187k minor faults for this block without the 16 MiB array that
    # `_block_partials` frees first to raise that threshold.
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
        sse._block_partials((model, psi0, 1, 1e-3, 1, report_indices(1, 1), 0, 2))  # first-use imports
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sse._block_partials((model, psi0, 1, 1e-3, 250, report_indices(250, 32), 0, 4096))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    package_root = str(Path(sse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    # The block's own arrays, records included, are about 12 MB: some 3000 pages.
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
    perp = perp_state(psi)
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
