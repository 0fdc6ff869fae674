import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from ssesim import cli, sse
from ssesim.algebra import pauli, random_state
from ssesim.errors import DimensionError, InfeasibleError, StepSizeError, ValidationError
from ssesim.param import (
    correlation_from_noise,
    noise_from_correlation,
    random_correlation,
    random_isometry,
    random_orthogonal,
    redundancy_witness,
    redundancy_witnesses,
    takagi,
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
    with pytest.raises(ValidationError):
        correlation_from_noise(np.array([[0.9], [0.1]]))


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


def test_takagi_reconstruction_sweep():
    for n in (1, 2, 3, 4):
        for case in range(25):
            s = random_correlation(8, n, case)
            sigma, w = takagi(s)
            assert np.all(sigma >= 0.0)
            assert np.all(np.diff(sigma) <= 1e-12)
            assert np.max(np.abs(w @ np.diag(sigma) @ w.T - s)) <= 1e-10
            assert np.max(np.abs(w.conj().T @ w - np.eye(n))) <= 1e-10


def test_takagi_handles_degenerate_spectra():
    v = random_isometry(2, 3, 3, 0)
    # Gaps of 2e-12 lie above the 1e-12 threshold but leave SVD vectors ill-conditioned.
    for sigma in ([0.7, 0.7, 0.7], [0.9, 0.9, 0.0], [0.0, 0.0, 0.0], [0.9 + 4e-12, 0.9 + 2e-12, 0.9]):
        s = v @ np.diag(sigma) @ v.T
        sig, w = takagi(s)
        assert np.max(np.abs(w @ np.diag(sig) @ w.T - s)) <= 1e-10


_GAPS = (0.0, 5e-13, 1e-12, 2e-12, 1e-11, 1e-9)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 4),
    top=st.floats(0.0, 0.99),
    gaps=st.lists(st.sampled_from(_GAPS), min_size=3, max_size=3),
    zeros=st.integers(0, 2),
    haar=st.integers(0, 2**31 - 1),
)
def test_takagi_round_trip_near_the_degeneracy_threshold(n, top, gaps, zeros, haar):
    # Clusters whose gaps straddle the 1e-12 threshold; the last `near_zero`
    # values are replaced by values near 0.
    near_zero = min(zeros, n - 1)
    sigma = top - np.cumsum([0.0] + gaps[: n - 1])
    sigma[n - near_zero :] = gaps[:near_zero]
    q = unitary_group.rvs(n, random_state=haar)
    s = q @ np.diag(sigma) @ q.T
    s = (s + s.T) / 2.0
    sig, w = takagi(s)
    assert np.all(np.diff(sig) <= 0.0)
    assert np.max(np.abs(w @ np.diag(sig) @ w.T - s)) <= 1e-10
    assert np.max(np.abs(w.conj().T @ w - np.eye(n))) <= 1e-10
    noise_from_correlation(s)


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
    with pytest.raises(ValidationError):
        noise_from_correlation(np.array([[0.1, 0.5], [0.2, 0.1]]))


# noise_from_correlation is the feasibility check: it realizes a feasible s and
# raises InfeasibleError for a spectral norm above 1.


def test_validate_correlation_identity():
    u = noise_from_correlation(np.eye(3))
    assert abs(np.linalg.norm(correlation_from_noise(u), 2) - 1.0) <= 1e-12


def test_validate_correlation_infeasible():
    with pytest.raises(InfeasibleError, match="spectral norm 2 > 1"):
        noise_from_correlation(2.0 * np.eye(2))


def test_validate_correlation_off_diagonal():
    u = noise_from_correlation(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert abs(np.linalg.norm(correlation_from_noise(u), 2) - 0.5) <= 1e-12


def test_validate_correlation_rejects_non_square():
    with pytest.raises(DimensionError):
        noise_from_correlation(np.zeros((2, 3)))


def test_witness_identity_rotation_is_exact():
    u = random_isometry(9, 4, 2, 1)
    w = redundancy_witness(
        u, np.eye(4), H_TEST, L_TEST, random_state(9, 2, 1), 0.05, 1e-3, seed=9
    )
    assert w.s_equal
    assert w.s_deviation == 0.0
    assert w.max_pathwise_deviation == 0.0


def test_witness_plane_rotation():
    angle = np.pi / 4.0
    orth = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    u = np.array([[1.0], [0.0]], dtype=complex)
    w = redundancy_witness(
        u, orth, H_TEST, L_TEST[:1], random_state(2, 2, 0), 0.1, 1e-3, seed=4
    )
    assert w.s_equal
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
    # All cases step as one block; each must round exactly as it does alone.
    for row in _param_rows(["param", "--seed", str(seed)]):
        case = row["case"]
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


def test_witness_collapse_names_the_case():
    # With H = 0 and L = sigma_z, dt = 2 maps |+> to xi sigma_z |+>: the step
    # collapses where |dW| < 0.1, which among trajectories 40-59 of seed 3 is 48 only.
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(StepSizeError, match="witness case 48 collapsed at step 0"):
        redundancy_witnesses(
            [np.eye(1)] * 20, [-np.eye(1)] * 20, np.zeros((2, 2)), (pauli(3),), [plus] * 20,
            2.0, 2.0, seed=3, case_ids=np.arange(40, 60),
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


def test_random_helpers_are_deterministic():
    assert np.array_equal(random_isometry(1, 4, 2, 3), random_isometry(1, 4, 2, 3))
    assert np.array_equal(random_orthogonal(1, 4, 3), random_orthogonal(1, 4, 3))
    assert np.array_equal(random_correlation(1, 3, 3), random_correlation(1, 3, 3))
    orth = random_orthogonal(1, 5, 0)
    assert np.max(np.abs(orth.T @ orth - np.eye(5))) <= 1e-12
