import numpy as np
import pytest
import scipy.linalg

from ssesim.algebra import MAX_STEPS, pauli
from ssesim.errors import DimensionError, ValidationError
from ssesim.master import (
    DynamicalMap,
    MasterGenerator,
    analytic_pauli_solution,
    apply_map,
    bloch_block,
    choi_matrix,
    cp_verdict,
    extract_map,
    integrate_master,
    map_grid,
    pauli_channel_map,
    pauli_generator,
    positivity_verdict,
)

SIGNED = (1.0, 1.0, -1.0)


def _density_bloch(rho):
    return np.array([2 * rho[1, 0].real, 2 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real])


def _bloch_density(n):
    return (np.eye(2) + n[0] * pauli(1) + n[1] * pauli(2) + n[2] * pauli(3)) / 2.0


def _random_generator(seed, d=3):
    # Hamiltonian plus three channels with signed rates.
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ops = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    return MasterGenerator((g + g.conj().T) / 2.0, tuple(zip((0.7, -0.3, 0.4), ops)))


def _rhs(rho, gen):
    # Right-hand side L vec(rho) of the master equation, in the row-major vec.
    rho = np.asarray(rho, dtype=complex)
    return (gen._superop @ rho.reshape(-1)).reshape(rho.shape)


def test_rhs_matches_operator_form():
    gen = _random_generator(21)
    h = gen.hamiltonian
    rng = np.random.default_rng(22)
    rhos = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    for rho in rhos:
        out = _rhs(rho, gen)
        want = -1j * (h @ rho - rho @ h)
        for rate, a in gen.channels:
            gram = a.conj().T @ a
            want = want + rate * (a @ rho @ a.conj().T - 0.5 * (gram @ rho + rho @ gram))
        assert np.max(np.abs(out - want)) <= 1e-12


def test_extract_map_matches_matrix_exponential():
    # One RK4 step is P = sum_{j<=4} (hL)^j / j!, so with l = ||L||_2,
    # ||P - e^{hL}|| <= (hl)^5 / 5! e^{hl} and over n steps
    # ||P^n - e^{nhL}|| <= n e^{nhl} (hl)^5 / 5!.
    gen = _random_generator(23)
    lmat = gen._superop
    norm = np.linalg.norm(lmat, 2)
    t = 0.5
    errors = []
    for dt in (0.01, 0.005):
        n = int(round(t / dt))
        exact = scipy.linalg.expm(lmat * t)
        err = np.linalg.norm(extract_map(gen, t, dt).superoperator - exact, 2)
        assert err <= n * np.exp(t * norm) * (dt * norm) ** 5 / 120.0
        errors.append(err)
    assert np.log2(errors[0] / errors[1]) >= 3.7
    exact = scipy.linalg.expm(lmat * 0.2)
    assert np.max(np.abs(extract_map(gen, 0.2, 1e-3).superoperator - exact)) <= 1e-10


def test_choi_matrix_matches_definition():
    m = extract_map(_random_generator(24), 0.3, 1e-3)
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    want = sum(np.kron(e, apply_map(m, e)) for e in units)
    assert np.max(np.abs(choi_matrix(m).matrix - want)) <= 1e-15


def test_rhs_annihilates_maximally_mixed():
    out = _rhs(np.eye(2) / 2.0, pauli_generator(SIGNED))
    assert np.max(np.abs(out)) <= 1e-15


def test_rhs_ground_state():
    # Expanding sigma_k |0><0| sigma_k by hand gives -2 sigma_z, i.e. dn3/dt = -4.
    out = _rhs(np.diag([1.0, 0.0]).astype(complex), pauli_generator(SIGNED))
    assert np.max(np.abs(out - (-2.0) * pauli(3))) <= 1e-15


def test_rhs_plus_state_is_stationary():
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = _rhs(plus, pauli_generator(SIGNED))
    assert np.max(np.abs(out)) <= 1e-15


def test_rhs_traceless_and_hermitian():
    rng = np.random.default_rng(3)
    gen = pauli_generator(rng.uniform(-2, 2, size=3))
    for _ in range(50):
        n = rng.normal(size=3)
        n *= rng.uniform(0, 1) / np.linalg.norm(n)
        out = _rhs(_bloch_density(n), gen)
        assert abs(np.trace(out)) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


def test_rhs_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        integrate_master(np.eye(3) / 3.0, pauli_generator(SIGNED), 0.1, 1e-3)


def test_integrate_zero_time_is_identity():
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    out = integrate_master(rho0, pauli_generator(SIGNED), 0.0, 1e-3)
    assert np.array_equal(out, rho0)
    assert not np.shares_memory(out, rho0)


def test_integrate_ground_state_decay():
    rho = integrate_master(np.diag([1.0, 0.0]).astype(complex), pauli_generator(SIGNED), 0.25, 1e-3)
    assert np.max(np.abs(_density_bloch(rho) - [0.0, 0.0, np.exp(-1.0)])) <= 1e-8


def test_integrate_conserves_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = integrate_master(plus, pauli_generator(SIGNED), 1.0, 1e-3)
    assert np.max(np.abs(rho - plus)) <= 1e-8


def test_integrate_preserves_trace_and_hermiticity_along_trajectory():
    rho = _bloch_density(np.array([0.3, -0.4, 0.5])).astype(complex)
    gen = pauli_generator(SIGNED)
    for _ in range(10):
        rho = integrate_master(rho, gen, 0.05, 1e-3)
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-11


def test_integrate_rejects_nonpositive_dt():
    with pytest.raises(ValidationError):
        integrate_master(np.eye(2) / 2.0, pauli_generator(SIGNED), 1.0, 0.0)


@pytest.mark.parametrize("t", [0.1005, np.inf, np.nan, (MAX_STEPS + 1) * 1e-3, 1e6, 1e300])
def test_master_times_off_grid_or_beyond_the_ceiling_are_refused(t):
    # Each of these is refused by the step-count resolver before any RK4 step.
    rho0 = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValidationError):
        integrate_master(rho0, pauli_generator(SIGNED), t, 1e-3)
    with pytest.raises(ValidationError):
        extract_map(pauli_generator(SIGNED), t, 1e-3)


def test_integrate_rejects_non_density_input():
    with pytest.raises(ValidationError):
        integrate_master(np.eye(2), pauli_generator(SIGNED), 0.1, 1e-3)


def test_analytic_solution_zero_time():
    n0 = np.array([0.2, -0.5, 0.7])
    assert np.array_equal(analytic_pauli_solution(n0, SIGNED, 0.0), n0)


def test_analytic_solution_signed_rates():
    n = analytic_pauli_solution(np.array([0.0, 0.0, 1.0]), SIGNED, 0.25)
    assert np.allclose(n, [0.0, 0.0, 0.3678794411714423], atol=1e-12)


def test_analytic_solution_isotropic_rates():
    n = analytic_pauli_solution(np.array([1.0, 0.0, 0.0]), (1.0, 1.0, 1.0), 0.5)
    assert np.allclose(n, [0.1353352832366127, 0.0, 0.0], atol=1e-12)


def test_analytic_matches_rk4_sweep():
    rng = np.random.default_rng(0)
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        n0 = direction * rng.uniform(0, 1)
        c = rng.uniform(-2, 2, size=3)
        t = round(rng.uniform(0, 1), 3)
        rho = integrate_master(_bloch_density(n0), pauli_generator(c), t, 1e-3)
        assert np.linalg.norm(_density_bloch(rho) - analytic_pauli_solution(n0, c, t)) <= 1e-7


def test_rk4_is_fourth_order():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    gen = pauli_generator(SIGNED)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        rho = integrate_master(rho0, gen, 0.5, dt)
        errors.append(abs(_density_bloch(rho)[2] - np.exp(-2.0)))
    orders = [np.log2(errors[i - 1] / errors[i]) for i in (1, 2)]
    assert min(orders) >= 3.7


def test_extract_map_zero_time_is_identity():
    m = extract_map(pauli_generator(SIGNED), 0.0, 1e-3)
    assert np.max(np.abs(m.superoperator - np.eye(4))) == 0.0


def test_extract_map_bloch_block_signed_rates():
    t = 0.3
    m = extract_map(pauli_generator(SIGNED), t, 1e-3)
    expected = np.diag([1.0, 1.0, np.exp(-4.0 * t)])
    assert np.max(np.abs(bloch_block(m) - expected)) <= 1e-9


def test_extract_map_bloch_block_isotropic():
    m = extract_map(pauli_generator((1.0, 1.0, 1.0)), 0.5, 1e-3)
    assert np.max(np.abs(bloch_block(m) - np.exp(-2.0) * np.eye(3))) <= 1e-9


def test_map_grid_matches_per_time_extraction():
    gen = pauli_generator(SIGNED)
    times = [0.05, 0.1, 0.25]
    for grid_map, t in zip(map_grid(gen, times, 1e-3), times):
        single = extract_map(gen, t, 1e-3)
        assert np.max(np.abs(grid_map.superoperator - single.superoperator)) <= 1e-13


@pytest.mark.parametrize(
    "times, match",
    [
        ([0.2, 0.1], "strictly increasing"),
        ([0.1, 0.1], "strictly increasing"),
        ([0.1, 0.1 + 1e-12], "strictly increasing"),  # both resolve to 100 steps
        ([-0.1, 0.1], ">= 0"),
        ([0.1, 0.1005], "not an integer multiple"),
    ],
)
def test_map_grid_rejects_bad_grids(times, match):
    with pytest.raises(ValidationError, match=match):
        map_grid(pauli_generator(SIGNED), times, 1e-3)


def test_dynamical_map_validates_trace_preservation():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 1.5
    with pytest.raises(ValidationError, match="not trace preserving"):
        DynamicalMap(bad, time=0.0)
    # Trace preserving, but Lambda(E_01) = 2 E_01 is not the adjoint of Lambda(E_10) = E_10.
    skewed = np.eye(4, dtype=complex)
    skewed[1, 1] = 2.0
    with pytest.raises(ValidationError, match="not Hermiticity preserving"):
        DynamicalMap(skewed, time=0.0)


def test_choi_of_identity_map():
    verdict = cp_verdict(choi_matrix(extract_map(pauli_generator(SIGNED), 0.0, 1e-3)))
    assert verdict.cp
    assert abs(verdict.min_eigenvalue) <= 1e-12
    assert abs(verdict.min_eigenvalue_raw - 0.0) <= 1e-12


def test_pauli_channel_choi_spectrum_brute_force():
    # Verify the q-spectrum formula on random diagonal Bloch maps before
    # relying on it: raw Choi eigenvalues must equal 2 q.
    rng = np.random.default_rng(4)
    for _ in range(30):
        lam = rng.uniform(-1, 1, size=3)
        choi = choi_matrix(pauli_channel_map(lam))
        got = np.sort(np.linalg.eigvalsh(choi.matrix))
        q = np.array(
            [
                1 + lam[0] + lam[1] + lam[2],
                1 + lam[0] - lam[1] - lam[2],
                1 - lam[0] + lam[1] - lam[2],
                1 - lam[0] - lam[1] + lam[2],
            ]
        ) / 4.0
        assert np.max(np.abs(got - 2.0 * np.sort(q))) <= 1e-12


def test_choi_signed_rates_is_not_cp():
    m = extract_map(pauli_generator(SIGNED), 0.25, 1e-3)
    verdict = cp_verdict(choi_matrix(m))
    assert not verdict.cp
    assert abs(verdict.min_eigenvalue - (np.exp(-1.0) - 1.0) / 4.0) <= 1e-6
    assert abs(verdict.min_eigenvalue - (-0.1580301)) <= 1e-6


def test_choi_isotropic_rates_is_cp():
    m = extract_map(pauli_generator((1.0, 1.0, 1.0)), 0.5, 1e-3)
    verdict = cp_verdict(choi_matrix(m))
    assert verdict.cp
    lam = np.exp(-2.0)
    q_min = (1.0 - lam) / 4.0  # smallest of the q-spectrum at (lam, lam, lam)
    assert verdict.min_eigenvalue >= -1e-9
    assert abs(verdict.min_eigenvalue - q_min) <= 1e-6


def test_cp_witness_is_an_eigenvector():
    choi = choi_matrix(extract_map(pauli_generator(SIGNED), 0.25, 1e-3))
    verdict = cp_verdict(choi)
    residual = choi.matrix @ verdict.witness - verdict.min_eigenvalue_raw * verdict.witness
    assert np.max(np.abs(residual)) <= 1e-10


def test_choi_minimum_approaches_negative_quarter():
    verdict = cp_verdict(choi_matrix(extract_map(pauli_generator(SIGNED), 5.0, 1e-3)))
    assert abs(verdict.min_eigenvalue - (-0.25)) <= 1e-6


def test_choi_minimum_curve_frozen_values():
    # (e^{-4t} - 1)/4 at t = 0.1, 0.25, 0.5.
    expected = [-0.0824199884910902, -0.1580301397071394, -0.2161661791908468]
    maps = map_grid(pauli_generator(SIGNED), [0.1, 0.25, 0.5], 1e-3)
    for m, want in zip(maps, expected):
        got = cp_verdict(choi_matrix(m)).min_eigenvalue
        assert abs(got - want) <= 1e-5


def test_choi_minimum_is_decreasing_in_time():
    times = np.round(np.arange(1, 11) * 0.1, 10)
    minima = [
        cp_verdict(choi_matrix(m)).min_eigenvalue
        for m in map_grid(pauli_generator(SIGNED), times, 1e-3)
    ]
    assert all(b < a for a, b in zip(minima, minima[1:]))


def test_positivity_of_identity_map():
    verdict = positivity_verdict(extract_map(pauli_generator(SIGNED), 0.0, 1e-3), 2000, seed=8)
    assert verdict.positive_on_samples
    assert abs(verdict.min_output_eigenvalue) <= 1e-12


def test_positivity_of_signed_rate_map():
    m = extract_map(pauli_generator(SIGNED), 0.25, 1e-3)
    verdict = positivity_verdict(m, 10000, seed=8)
    assert verdict.positive_on_samples
    assert verdict.min_output_eigenvalue >= -1e-9


def test_positivity_detects_synthetic_violation():
    # Bloch block diag(1, 1, 1.5) maps |0><0| to eigenvalue (1 - 1.5) / 2.
    verdict = positivity_verdict(pauli_channel_map((1.0, 1.0, 1.5)), 10000, seed=8)
    assert not verdict.positive_on_samples
    assert verdict.min_output_eigenvalue <= -0.2


def test_apply_map_agrees_with_integration():
    gen = pauli_generator(SIGNED)
    m = extract_map(gen, 0.2, 1e-3)
    rho0 = _bloch_density(np.array([0.1, 0.6, -0.3])).astype(complex)
    direct = integrate_master(rho0, gen, 0.2, 1e-3)
    assert np.max(np.abs(apply_map(m, rho0) - direct)) <= 1e-12


def test_positivity_sampling_is_reproducible():
    m = extract_map(pauli_generator(SIGNED), 0.25, 1e-3)
    a = positivity_verdict(m, 500, seed=3)
    b = positivity_verdict(m, 500, seed=3)
    assert a.min_output_eigenvalue == b.min_output_eigenvalue
