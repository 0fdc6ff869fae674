import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssesim import rng, sse
from ssesim.algebra import (
    MAX_STEPS,
    bloch_from_density,
    bloch_from_state,
    hermitian_eigen,
    pauli,
    random_state,
    report_indices,
    resolve_steps,
    state_from_bloch,
)
from ssesim.errors import DimensionError, ValidationError
from ssesim.master import analytic_pauli_solution, pauli_generator

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_pauli_z_is_diagonal():
    assert np.array_equal(pauli(3), np.diag([1.0, -1.0]).astype(complex))


def test_pauli_involution():
    for k in (1, 2, 3):
        assert np.array_equal(pauli(k) @ pauli(k), np.eye(2, dtype=complex))


def test_pauli_commutator():
    comm = pauli(1) @ pauli(2) - pauli(2) @ pauli(1)
    assert np.max(np.abs(comm - 2j * pauli(3))) == 0.0


def test_pauli_anticommutators():
    for k in (1, 2, 3):
        for j in (1, 2, 3):
            anti = pauli(k) @ pauli(j) + pauli(j) @ pauli(k)
            expected = 2.0 * np.eye(2) if k == j else np.zeros((2, 2))
            assert np.max(np.abs(anti - expected)) <= 1e-15


def test_pauli_rejects_bad_index():
    for k in (0, 4, -1):
        with pytest.raises(ValidationError):
            pauli(k)


def test_bloch_north_pole():
    assert np.allclose(bloch_from_state([1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15)


def test_bloch_plus_x():
    assert np.allclose(bloch_from_state([INV_SQRT2, INV_SQRT2]), [1.0, 0.0, 0.0], atol=1e-15)


def test_bloch_plus_y():
    # <sigma_k> of (1, i)/sqrt(2) by direct arithmetic: (0, 1, 0).
    assert np.allclose(bloch_from_state([INV_SQRT2, 1j * INV_SQRT2]), [0.0, 1.0, 0.0], atol=1e-15)


def test_bloch_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        bloch_from_state(np.ones(3) / np.sqrt(3.0))


def test_bloch_matches_operator_expectation():
    psi = random_state(2024, 2, np.arange(200))
    n = bloch_from_state(psi)
    for k in (1, 2, 3):
        direct = np.einsum("bi,ij,bj->b", psi.conj(), pauli(k), psi).real
        assert np.max(np.abs(n[:, k - 1] - direct)) <= 1e-14


def test_bloch_state_round_trip():
    rng_np = np.random.default_rng(5)
    vecs = rng_np.normal(size=(300, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs = np.vstack([vecs, [[0, 0, 1.0]], [[0, 0, -1.0]], [[1.0, 0, 0]]])
    for n in vecs:
        back = bloch_from_state(state_from_bloch(n))
        assert np.max(np.abs(back - n)) <= 1e-12


def test_bloch_from_density_matches_trace():
    psi = random_state(31, 2, np.arange(40))
    weights = np.linspace(0.1, 1.0, 40) / np.linspace(0.1, 1.0, 40).sum()
    rho = np.einsum("b,bi,bj->ij", weights, psi, psi.conj())
    direct = [np.trace(rho @ pauli(k)).real for k in (1, 2, 3)]
    assert np.max(np.abs(bloch_from_density(rho) - direct)) <= 1e-15
    with pytest.raises(DimensionError):
        bloch_from_density(np.eye(3))


def test_state_from_bloch_rejects_interior_point():
    with pytest.raises(ValidationError):
        state_from_bloch([0.0, 0.0, 0.5])


def test_eigen_diagonal_input():
    w, v = hermitian_eigen(np.diag([2.0, -1.0]))
    assert np.allclose(w, [-1.0, 2.0], atol=1e-14)
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-14


def test_eigen_pauli_spectrum():
    for k in (1, 2, 3):
        w, _ = hermitian_eigen(pauli(k))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-13)


def test_eigen_choi_of_identity():
    # sum_ij E_ij (x) E_ij is twice a rank-one projector: spectrum (0, 0, 0, 2).
    c = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(e, e)
    w, _ = hermitian_eigen(c)
    assert np.allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_diagonalizes_large_dimensions():
    rng_np = np.random.default_rng(13)
    for d in range(9, 17):
        g = rng_np.normal(size=(d, d)) + 1j * rng_np.normal(size=(d, d))
        a = (g + g.conj().T) / 2.0
        w, v = hermitian_eigen(a)
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(a @ v - v * w)) <= 1e-11
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-11


def test_eigen_reconstruction_sweep():
    rng_np = np.random.default_rng(12)
    for i in range(1000):
        d = 2 + i % 7
        g = rng_np.normal(size=(d, d)) + 1j * rng_np.normal(size=(d, d))
        a = (g + g.conj().T) / 2.0
        w, v = hermitian_eigen(a)
        assert np.max(np.abs(a @ v - v * w)) <= 1e-11
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-11
        # independent oracle for the spectrum
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-11


def test_random_state_is_reproducible():
    a = random_state(99, 2, 7)
    b = random_state(99, 2, 7)
    batch = random_state(99, 2, np.arange(10))
    assert np.array_equal(a, b)
    assert np.array_equal(batch[7], a)


def test_random_state_normalization():
    psi = random_state(1, 4, np.arange(500))
    norms = np.einsum("bi,bi->b", psi.conj(), psi).real
    assert np.max(np.abs(norms - 1.0)) <= 1e-14


def test_random_state_haar_mean():
    psi = random_state(123, 2, np.arange(10000))
    mean = bloch_from_state(psi).mean(axis=0)
    assert np.linalg.norm(mean) <= 0.04


def test_random_state_rejects_dimension_one():
    with pytest.raises(DimensionError):
        random_state(0, 1)


def test_counter_normals_moments():
    z = rng.normals(rng.DOMAIN_WIENER, 3, 0, np.arange(100000), 0)
    assert abs(z.mean()) <= 4.0 / np.sqrt(100000.0)
    assert abs(z.var() - 1.0) <= 0.05


def test_counter_normals_independent_of_call_pattern():
    batch = rng.normals(rng.DOMAIN_WIENER, 17, 4, np.arange(50), 2)
    singles = np.array([rng.normals(rng.DOMAIN_WIENER, 17, 4, s, 2) for s in range(50)])
    reversed_order = np.array(
        [rng.normals(rng.DOMAIN_WIENER, 17, 4, s, 2) for s in reversed(range(50))]
    )[::-1]
    assert np.array_equal(batch, singles)
    assert np.array_equal(batch, reversed_order)


def test_counter_uniforms_are_open_interval():
    u = rng.uniforms(0, np.arange(10000))
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_resolve_steps_ceiling():
    assert resolve_steps(MAX_STEPS * 1e-3, 1e-3) == MAX_STEPS
    with pytest.raises(ValidationError, match="more than"):
        resolve_steps((MAX_STEPS + 1) * 1e-3, 1e-3)
    with pytest.raises(ValidationError):
        resolve_steps(1e300, 1e-3)


@pytest.mark.parametrize(
    ("t_final", "dt", "message"), [(1.0, np.nan, "dt must be a positive number"), (np.nan, 1e-3, "final time must be")]
)
def test_resolve_steps_refuses_nan_with_the_range_message(t_final, dt, message):
    with pytest.raises(ValidationError, match=message):
        resolve_steps(t_final, dt)


def test_resolve_steps_refuses_an_infinite_dt():
    # 0 * inf is nan, which must not pass the whole-multiple check as 0 steps.
    for t in (0.0, 1.0):
        with pytest.raises(ValidationError, match="not an integer multiple"):
            resolve_steps(t, np.inf)


@settings(max_examples=300, deadline=None)
@given(steps=st.integers(0, 10**6), grid_points=st.integers(1, 10**4))
def test_report_indices_strictly_increase_to_steps(steps, grid_points):
    idx = report_indices(steps, grid_points)
    assert np.all(np.diff(idx) > 0)
    assert idx[-1] == steps
    count = min(grid_points, steps)
    if count:
        # The sorted form it replaces.
        assert np.array_equal(idx, np.unique(np.round(steps * np.arange(1, count + 1) / count).astype(int)))


_U64 = st.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=40, deadline=None)
@given(
    seed=_U64,
    trajectories=st.lists(_U64, min_size=1, max_size=6),
    steps=st.lists(_U64, min_size=1, max_size=6),
    channel=_U64,
    data=st.data(),
)
def test_normals_depend_only_on_their_coordinates(seed, trajectories, steps, channel, data):
    # The same (seed, trajectory, step, channel) draws the same value as a
    # scalar call, inside a broadcast grid, or in a shuffled flat batch.
    grid = rng.normals(
        rng.DOMAIN_WIENER, seed, np.array(trajectories, dtype=np.uint64)[:, None],
        np.array(steps, dtype=np.uint64), channel,
    )
    cells = data.draw(st.permutations([(i, j) for i in range(len(trajectories)) for j in range(len(steps))]))
    flat = rng.normals(
        rng.DOMAIN_WIENER, seed, np.array([trajectories[i] for i, _ in cells], dtype=np.uint64),
        np.array([steps[j] for _, j in cells], dtype=np.uint64), channel,
    )
    for (i, j), value in zip(cells, flat):
        single = rng.normals(rng.DOMAIN_WIENER, seed, trajectories[i], steps[j], channel)
        assert value == grid[i, j] == single


@settings(max_examples=40, deadline=None)
@given(
    seed=_U64,
    trajectories=st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=6),
    steps=st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=4),
    channels=st.integers(min_value=1, max_value=5),
    block_steps=st.integers(min_value=1, max_value=12),
)
def test_wiener_key_prefix_gives_the_same_draws(seed, trajectories, steps, channels, block_steps):
    # Continuing the fold from the hashed (domain, seed, trajectory) prefix
    # draws bit for bit what hashing all five coordinates draws.
    ids = np.array(trajectories, dtype=np.uint64)
    step_grid = np.array(steps, dtype=np.uint64)[:, None]
    channel_grid = np.arange(channels)[:, None, None]
    prefixed = rng.normals(step_grid, channel_grid, prefix=sse._wiener_key(seed, ids))
    assert np.array_equal(prefixed, rng.normals(rng.DOMAIN_WIENER, seed, ids, step_grid, channel_grid))
    for i, trajectory in enumerate(trajectories):
        for j, step in enumerate(steps):
            for k in range(channels):
                assert prefixed[k, j, i] == rng.normals(rng.DOMAIN_WIENER, seed, trajectory, step, k)
        key = sse._wiener_key(seed, trajectory)
        block = sse._wiener(key, np.arange(block_steps)[:, None], np.arange(channels), 1e-3)
        for s in range(block_steps):
            assert np.array_equal(block[s], sse._wiener(key, s, np.arange(channels), 1e-3))
            full = rng.normals(rng.DOMAIN_WIENER, seed, trajectory, s, np.arange(channels)) * np.sqrt(1e-3)
            assert np.array_equal(block[s], full)


_RATE_USERS = {
    "pauli_generator": pauli_generator,
    "analytic_pauli_solution": lambda c: analytic_pauli_solution([0.0, 0.0, 1.0], c, 0.25),
    "identity_residual": lambda c: sse.identity_residual(np.array([1.0, 0.0]), c),
    "NonCpQubitModel": sse.NonCpQubitModel,
}


@pytest.mark.parametrize("rates", [(1.0, 1.0, np.inf), (1.0, np.nan, -1.0)], ids=["inf", "nan"])
@pytest.mark.parametrize("user", list(_RATE_USERS), ids=list(_RATE_USERS))
def test_every_rate_vector_user_refuses_non_finite_rates(user, rates):
    with pytest.raises(ValidationError, match="rates must be finite"):
        _RATE_USERS[user](rates)
