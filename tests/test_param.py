import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from ssesim import cli, param, sse
from ssesim.algebra import pauli, random_state
from ssesim.errors import DimensionError, InfeasibleError, StepSizeError, ValidationError
from ssesim.param import (
    correlation_from_noise,
    noise_from_correlation,
    random_correlation,
    random_isometry,
    random_orthogonal,
    redundancy_witness,
)

H_TEST = np.array([[0.15, 0.2], [0.2, -0.15]], dtype=complex)
L_TEST = (0.5 * pauli(3), 0.4 * pauli(1))


def test_correlation_of_identity_noise():
    assert np.array_equal(correlation_from_noise(np.eye(3)), np.eye(3).astype(complex))


def test_correlation_of_two_row_column():
    # u = (p, iq)^T has u^T u = p^2 - q^2 = r while |u|^2 = 1.
    for r in (0.0, 0.35, 1.0):
        p = np.sqrt((1.0 + r) / 2.0)
        q = np.sqrt((1.0 - r) / 2.0)
        u = np.array([[p], [1j * q]])
        s = correlation_from_noise(u)
        assert abs(s[0, 0] - r) <= 1e-15


def test_correlation_balanced_column_vanishes():
    u = np.array([[1.0], [1j]]) / np.sqrt(2.0)
    assert abs(correlation_from_noise(u)[0, 0]) <= 1e-16


def test_correlation_rejects_non_isometry():
    with pytest.raises(ValidationError, match="^noise matrix is not an isometry"):
        correlation_from_noise(np.array([[0.9], [0.1]]))
    with pytest.raises(ValidationError, match="^noise matrix is not an isometry"):
        correlation_from_noise(np.full((2, 1), np.nan))


# sse._contract(u, dw) is the noise map dxi*_j = sum_k dW_k u_kj of component-major
# real Wiener increments dw (N, ...).


def test_map_noise_identity():
    out = sse._contract(np.eye(3, dtype=complex), np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0], dtype=complex))


def test_map_noise_zero():
    u = random_isometry(1, 4, 2, 0)
    assert np.array_equal(sse._contract(u, np.zeros(4)), np.zeros(2, dtype=complex))


def test_map_noise_rejects_length_mismatch():
    # The increment count is checked where the noise map is driven: `increment`.
    model = sse.GeneralDiffusiveModel(np.zeros((2, 2)), (pauli(1), pauli(2), pauli(3)), np.eye(3))
    with pytest.raises(DimensionError):
        sse.increment(np.array([1.0, 0.0]), model, np.zeros(2), 1e-3)


def test_map_noise_second_moments():
    # E[dxi dxi^T] / dt -> conj(s) and E[conj(dxi) dxi^T] / dt -> I.
    dt = 1e-3
    u = random_isometry(4, 3, 2, 0)
    dw = sse._wiener(sse._wiener_key(31, 0), np.arange(100000)[:, None], np.arange(3), dt)
    xi = sse._contract(u, dw.T).T
    emp = np.einsum("bi,bj->ij", xi, xi) / (100000 * dt)
    cross = np.einsum("bi,bj->ij", xi.conj(), xi) / (100000 * dt)
    assert np.max(np.abs(emp - np.conj(correlation_from_noise(u)))) <= 0.05
    assert np.max(np.abs(cross - np.eye(2))) <= 0.05


def _assert_realized(s, u, tol):
    assert u.shape == s.shape[:-2] + (2 * s.shape[-1], s.shape[-1])
    assert np.max(np.abs(correlation_from_noise(u) - s)) <= tol
    assert np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(s.shape[-1]))) <= tol


def test_spectral_norm_sweep():
    # The top eigenvalue of the real embedding is the spectral norm of s: norm 1 is
    # realized, and 1 + 1e-8 is refused with that norm in the message.
    for n in (1, 2, 3, 4):
        for case in range(25):
            s = random_correlation(8, n, case)
            s = s / np.linalg.norm(s, 2)
            _assert_realized(s, noise_from_correlation(s), 1e-10)
            with pytest.raises(InfeasibleError, match=r"spectral norm 1\.0000000\d* > 1"):
                noise_from_correlation((1.0 + 1e-8) * s)


def test_noise_from_correlation_handles_degenerate_spectra():
    v = random_isometry(2, 3, 3, 0)
    # Clusters of equal or nearly equal Takagi values, and of zeros.
    for sigma in ([0.7, 0.7, 0.7], [0.9, 0.9, 0.0], [0.0, 0.0, 0.0], [0.9 + 4e-12, 0.9 + 2e-12, 0.9]):
        s = v @ np.diag(sigma) @ v.T
        _assert_realized(s, noise_from_correlation(s), 1e-10)


def test_noise_from_correlation_keeps_tiny_takagi_values():
    # Values of order 1e-12 are neither dropped nor merged with their -sigma partners.
    v = random_isometry(2, 3, 3, 0)
    s = v @ np.diag([0.9, 1e-12, 5e-13]) @ v.T
    _assert_realized(s, noise_from_correlation(s), 1e-13)


_GAPS = (0.0, 5e-13, 1e-12, 2e-12, 1e-11, 1e-9)


@settings(max_examples=150)
@given(
    n=st.integers(2, 4),
    top=st.floats(0.0, 0.99),
    gaps=st.lists(st.sampled_from(_GAPS), min_size=3, max_size=3),
    zeros=st.integers(0, 2),
    haar=st.integers(0, 2**31 - 1),
)
def test_noise_round_trip_near_degenerate_spectra(n, top, gaps, zeros, haar):
    # Clusters with gaps from 0 to 1e-9; the last `near_zero` values are
    # replaced by values near 0.
    near_zero = min(zeros, n - 1)
    sigma = top - np.cumsum([0.0] + gaps[: n - 1])
    sigma[n - near_zero :] = gaps[:near_zero]
    q = unitary_group.rvs(n, random_state=haar)
    s = q @ np.diag(sigma) @ q.T
    s = (s + s.T) / 2.0
    _assert_realized(s, noise_from_correlation(s), 1e-10)


def test_noise_from_identity_correlation():
    u = noise_from_correlation(np.eye(2))
    assert u.shape == (4, 2)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
    assert np.max(np.abs(correlation_from_noise(u) - np.eye(2))) <= 1e-12


def test_noise_from_zero_correlation():
    u = noise_from_correlation(np.zeros((3, 3)))
    assert np.max(np.abs(np.abs(u[:3, :]) - np.eye(3) / np.sqrt(2.0))) <= 1e-12
    assert np.max(np.abs(correlation_from_noise(u))) <= 1e-12


def test_round_trip_sweep():
    for n in (1, 2, 3, 4):
        for case in range(50):
            s = random_correlation(3, n, case)
            u = noise_from_correlation(s)
            assert u.shape == (2 * n, n)
            assert np.max(np.abs(correlation_from_noise(u) - s)) <= 1e-10
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-10


def test_feasibility_boundary():
    noise_from_correlation(np.eye(2))  # spectral norm exactly 1 is feasible
    with pytest.raises(InfeasibleError):
        noise_from_correlation((1.0 + 1e-6) * np.eye(2))


def test_noise_from_correlation_rejects_asymmetric_input():
    asymmetric = np.array([[0.1, 0.5], [0.2, 0.1]])
    with pytest.raises(ValidationError, match="correlation matrix is not symmetric"):
        noise_from_correlation(asymmetric)
    with pytest.raises(ValidationError, match="correlation matrix 1 is not symmetric"):
        noise_from_correlation(np.stack([np.eye(2), asymmetric]))
    # inf - inf is NaN, which the symmetry check refuses with no RuntimeWarning.
    with pytest.raises(ValidationError, match="correlation matrix is not symmetric"):
        noise_from_correlation([[np.inf, 0.0], [0.0, 0.0]])


def _missing_round_trip(monkeypatch):
    # Each eigenvalue of the embedding scaled by 1 + 1e-8 keeps u an isometry but moves u^T u off s by about 1e-8.
    real = np.linalg.eigh

    def scaled(a):
        lam, vec = real(a)
        return lam * (1.0 + 1e-8), vec

    monkeypatch.setattr(np.linalg, "eigh", scaled)


def test_noise_from_correlation_refuses_a_construction_that_misses_its_round_trip(monkeypatch):
    _missing_round_trip(monkeypatch)
    with pytest.raises(ValidationError, match="noise construction failed to reproduce correlation matrix 0"):
        noise_from_correlation(random_correlation(3, 2, np.arange(3)))


def test_param_exits_two_when_the_construction_misses_its_round_trip(monkeypatch, capsys):
    _missing_round_trip(monkeypatch)
    assert cli.main(["param", "--cases", "3", "--witness-steps", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: noise construction failed") and err.count("\n") == 1


# noise_from_correlation is the feasibility check: it realizes a feasible s and
# raises InfeasibleError for a spectral norm above 1.


def test_validate_correlation_identity():
    u = noise_from_correlation(np.eye(3))
    assert abs(np.linalg.norm(correlation_from_noise(u), 2) - 1.0) <= 1e-12


def test_validate_correlation_infeasible():
    with pytest.raises(InfeasibleError, match="^correlation matrix has spectral norm 2 > 1$"):
        noise_from_correlation(2.0 * np.eye(2))


def test_validate_correlation_off_diagonal():
    u = noise_from_correlation(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert abs(np.linalg.norm(correlation_from_noise(u), 2) - 0.5) <= 1e-12


def test_validate_correlation_rejects_non_square():
    with pytest.raises(DimensionError):
        noise_from_correlation(np.zeros((2, 3)))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_noise_from_correlation_refuses_an_empty_correlation_matrix(shape):
    with pytest.raises(DimensionError, match=r"^correlation matrix must be n x n with n >= 1, got shape \(.*0, 0\)$"):
        noise_from_correlation(np.zeros(shape))


def test_witness_identity_rotation_is_exact():
    u = random_isometry(9, 4, 2, 1)
    w = redundancy_witness(
        u, np.eye(4), H_TEST, L_TEST, random_state(9, 2, 1), 0.05, 1e-3, seed=9
    )
    assert w.s_deviation == 0.0
    assert w.max_pathwise_deviation == 0.0


def test_witness_plane_rotation():
    angle = np.pi / 4.0
    orth = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    u = np.array([[1.0], [0.0]], dtype=complex)
    w = redundancy_witness(
        u, orth, H_TEST, L_TEST[:1], random_state(2, 2, 0), 0.1, 1e-3, seed=4
    )
    assert w.s_deviation <= 1e-12
    assert w.max_pathwise_deviation <= 1e-12


def test_witness_random_sweep():
    for case in range(20):
        n = 1 + case % 2
        u = random_isometry(5, 4, n, case)
        orth = random_orthogonal(5, 4, case)
        w = redundancy_witness(
            u, orth, H_TEST, L_TEST[:n], random_state(5, 2, case), 0.1, 1e-3,
            seed=5, trajectory_id=case,
        )
        assert w.s_deviation <= 1e-12
        assert w.max_pathwise_deviation <= 1e-12


def _param_rows(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())["records"]


@pytest.mark.parametrize("seed", [1, 42])
def test_param_rows_match_the_lone_witness_bitwise(seed):
    # All cases step as one block; each must round exactly as it does alone.  A row's position is its case.
    for case, row in enumerate(_param_rows(["param", "--seed", str(seed)])):
        witness = redundancy_witness(
            random_isometry(seed, 4, 2, case),
            random_orthogonal(seed, 4, case),
            cli._WITNESS_HAMILTONIAN,
            cli._WITNESS_LINDBLADS[:2],
            random_state(seed, 2, case),
            0.1,
            1e-3,
            seed,
            trajectory_id=case,
        )
        assert row["pathwise_deviation"] == witness.max_pathwise_deviation


def test_witness_memory_does_not_grow_with_steps():
    u, orth, psi0 = random_isometry(5, 4, 2, 7), random_orthogonal(5, 4, 7), random_state(5, 2, 7)

    def peak(steps):
        tracemalloc.start()
        redundancy_witness(u, orth, H_TEST, L_TEST, psi0, steps * 1e-3, 1e-3, seed=5)
        size = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return size

    peak(40)  # first call warms caches outside the measurement
    # Storing the states alone would add 2 x 4001 x 2 complex, 256 kB.
    assert peak(4000) <= peak(40) + 16384


def test_witness_draws_a_bounded_block_of_steps_per_call(monkeypatch):
    # 100 cases of N = 4 over 100 steps, as `param` runs them by default.
    cases = np.arange(100)
    args = (
        random_isometry(5, 4, 2, cases), random_orthogonal(5, 4, cases), H_TEST, L_TEST,
        random_state(5, 2, cases), 0.1, 1e-3, 5, cases,
    )
    expected = redundancy_witness(*args)
    sizes = []

    def counted(*a):
        dw = sse._wiener(*a)
        sizes.append(dw.size)
        return dw

    def same(witness):
        fields = ("s_deviation", "max_pathwise_deviation")
        return all(np.array_equal(getattr(witness, f), getattr(expected, f)) for f in fields)

    monkeypatch.setattr(param, "_wiener", counted)
    # The per-case bound: 256 / N^2 = 16 steps of every case per draw.
    assert same(redundancy_witness(*args))
    assert sizes == [4 * 16 * 100] * 6 + [4 * 4 * 100]
    # The stack bound, where it is reached first: one step per draw.
    sizes.clear()
    monkeypatch.setattr(param, "_NOISE_STACK_ENTRIES", 1 << 10)
    assert same(redundancy_witness(*args))
    assert sizes == [4 * 100] * 100


def test_a_lone_witness_case_is_its_row_of_the_stack():
    cases = np.arange(30, 36)
    stacked = redundancy_witness(
        random_isometry(8, 3, 2, cases), random_orthogonal(8, 3, cases), H_TEST, L_TEST,
        random_state(8, 2, cases), 0.05, 1e-3, 8, cases,
    )
    assert stacked.s_deviation.shape == stacked.max_pathwise_deviation.shape == (6,)
    for row, case in enumerate(cases):
        lone = redundancy_witness(
            random_isometry(8, 3, 2, case), random_orthogonal(8, 3, case), H_TEST, L_TEST,
            random_state(8, 2, case), 0.05, 1e-3, 8, trajectory_id=case,
        )
        assert np.shape(lone.s_deviation) == np.shape(lone.max_pathwise_deviation) == ()
        assert lone.s_deviation == stacked.s_deviation[row]
        assert lone.max_pathwise_deviation == stacked.max_pathwise_deviation[row]


@pytest.mark.parametrize("ids", [np.arange(2), np.arange(4).reshape(2, 2)])
def test_witness_needs_one_trajectory_id_per_case(ids):
    u, orth = random_isometry(8, 3, 2, np.arange(3)), random_orthogonal(8, 3, np.arange(3))
    with pytest.raises(DimensionError, match="one noise matrix per trajectory id"):
        redundancy_witness(u, orth, H_TEST, L_TEST, random_state(8, 2, np.arange(3)), 0.05, 1e-3, 8, ids)


def test_witness_refuses_an_empty_stack_before_building_the_model(monkeypatch):
    def no_model(*args):
        raise AssertionError("built a model for an empty stack")

    monkeypatch.setattr(param, "GeneralDiffusiveModel", no_model)
    empty = np.arange(0)
    with pytest.raises(DimensionError, match="at least one case"):
        redundancy_witness(
            random_isometry(8, 3, 2, empty), random_orthogonal(8, 3, empty), H_TEST, L_TEST,
            random_state(8, 2, empty), 0.05, 1e-3, 8, empty,
        )


def test_witness_collapse_names_the_case():
    # With H = 0 and L = sigma_z, dt = 2 maps |+> to xi sigma_z |+>: the step
    # collapses where |dW| < 0.1, which among trajectories 40-59 of seed 3 is 48 only.
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(StepSizeError, match="witness case 48 collapsed at step 0"):
        redundancy_witness(
            [np.eye(1)] * 20, [-np.eye(1)] * 20, np.zeros((2, 2)), (pauli(3),), [plus] * 20,
            2.0, 2.0, seed=3, trajectory_id=np.arange(40, 60),
        )


def test_witness_rejects_non_orthogonal_matrix():
    u = random_isometry(9, 3, 1, 0)
    with pytest.raises(ValidationError):
        redundancy_witness(
            u, 0.5 * np.eye(3), H_TEST, L_TEST[:1], random_state(9, 2, 0), 0.05, 1e-3, seed=1
        )


def test_witness_rejects_time_not_a_multiple_of_dt():
    u = random_isometry(9, 3, 1, 0)
    with pytest.raises(ValidationError):
        redundancy_witness(
            u, np.eye(3), H_TEST, L_TEST[:1], random_state(9, 2, 0), 0.0104, 1e-3, seed=1
        )


def test_random_isometry_refuses_more_columns_than_rows():
    with pytest.raises(DimensionError, match="^need N >= n >= 1, got N = 2, n = 3$"):
        random_isometry(1, 2, 3)


def test_random_helpers_are_deterministic():
    assert np.array_equal(random_isometry(1, 4, 2, 3), random_isometry(1, 4, 2, 3))
    assert np.array_equal(random_orthogonal(1, 4, 3), random_orthogonal(1, 4, 3))
    assert np.array_equal(random_correlation(1, 3, 3), random_correlation(1, 3, 3))
    orth = random_orthogonal(1, 5, 0)
    assert np.max(np.abs(orth.T @ orth - np.eye(5))) <= 1e-12



# A lone matrix is a stack with no batch axes: each param function applied to
# a stack gives every matrix the bits it gets alone.


def _lone(fn, stack, core: int):
    """fn of each entry of `stack` (its last `core` axes) alone, restacked over the batch axes."""
    batch = stack.shape[: stack.ndim - core]
    out = np.stack([fn(entry) for entry in stack.reshape((-1,) + stack.shape[len(batch):])])
    return out.reshape(batch + out.shape[1:])


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Takagi spectra of full rank, rank 1, rank 0, rank n - 1 and with gaps of 2e-12.
_SPECTRA = (
    lambda n: np.full(n, 0.7),
    lambda n: np.r_[0.9, np.zeros(n - 1)],
    lambda n: np.zeros(n),
    lambda n: np.r_[np.full(n - 1, 0.9), 0.0],
    lambda n: 0.9 + np.r_[4e-12, 2e-12, 0.0, 0.0][:n],
)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 4),
    extra_rows=st.integers(0, 3),
    shape=st.sampled_from([(), (1,), (5,), (2, 3)]),
    data=st.data(),
)
def test_stacked_calls_keep_each_cases_bits(seed, n, extra_rows, shape, data):
    size = int(np.prod(shape))
    ids = st.lists(st.integers(0, 10**6), min_size=size, max_size=size)
    cases = np.array(data.draw(ids), dtype=int).reshape(shape)
    for draw in (
        lambda c: random_isometry(seed, n + extra_rows, n, c),
        lambda c: random_orthogonal(seed, n + extra_rows, c),
        lambda c: random_correlation(seed, n, c),
    ):
        assert _same_bits(draw(cases), _lone(lambda c: draw(int(c)), cases, 0))

    # Generic correlations and degenerate spectra, mixed entry by entry (-1 keeps the generic one).
    s = random_correlation(seed, n, cases)
    kinds = data.draw(st.lists(st.integers(-1, len(_SPECTRA) - 1), min_size=size, max_size=size))
    flat = s.reshape(-1, n, n)
    for i, kind in enumerate(kinds):
        if kind >= 0:
            v = random_isometry(seed, n, n, i)
            flat[i] = v @ np.diag(_SPECTRA[kind](n)) @ v.T
    u = noise_from_correlation(s)
    assert _same_bits(u, _lone(noise_from_correlation, s, 2))
    assert _same_bits(correlation_from_noise(u), _lone(correlation_from_noise, u, 2))


def test_a_stack_names_its_infeasible_entry():
    s = random_correlation(6, 2, np.arange(5))
    s[3] = 2.0 * np.eye(2)
    with pytest.raises(InfeasibleError, match="correlation matrix 3 has spectral norm 2 > 1"):
        noise_from_correlation(s)


def test_a_stack_names_its_non_isometric_entries():
    u = random_isometry(6, 4, 2, np.arange(5))
    u[2] *= 0.5
    with pytest.raises(ValidationError, match="noise matrix 2 is not an isometry"):
        correlation_from_noise(u)
    orth = random_orthogonal(6, 4, np.arange(5))
    orth[4] *= 0.5
    with pytest.raises(ValidationError, match="orthogonal matrix 4 is not an isometry"):
        redundancy_witness(
            random_isometry(6, 4, 2, np.arange(5)), orth, H_TEST, L_TEST, random_state(6, 2, np.arange(5)),
            0.01, 1e-3, seed=6, trajectory_id=np.arange(5),
        )

