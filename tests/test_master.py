import numpy as np
import pytest
import scipy.linalg

from ssesim.algebra import MAX_STEPS, pauli, report_indices, resolve_steps
from ssesim.errors import DimensionError, ValidationError
from ssesim.master import (
    DynamicalMap,
    MasterGenerator,
    analytic_pauli_solution,
    apply_map,
    bloch_block,
    choi_matrix,
    cp_verdict,
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
    # The reference never forms the drift operator K that L is built from:
    # d = 2, 3 and 4 with three signed-rate channels, and d = 3 with none.
    gens = [_random_generator(21), _random_generator(24, d=2), _random_generator(25, d=4)]
    gens.append(MasterGenerator(_random_generator(26).hamiltonian))
    rng = np.random.default_rng(22)
    for gen in gens:
        h, d = gen.hamiltonian, gen.dim
        rhos = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
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
        err = np.linalg.norm(map_grid(gen, t, dt).superoperator - exact, 2)
        assert err <= n * np.exp(t * norm) * (dt * norm) ** 5 / 120.0
        errors.append(err)
    assert np.log2(errors[0] / errors[1]) >= 3.7
    exact = scipy.linalg.expm(lmat * 0.2)
    assert np.max(np.abs(map_grid(gen, 0.2, 1e-3).superoperator - exact)) <= 1e-10


def test_choi_matrix_matches_definition():
    m = map_grid(_random_generator(24), 0.3, 1e-3)
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    want = sum(np.kron(e, apply_map(m, e)) for e in units)
    assert np.max(np.abs(choi_matrix(m) - want)) <= 1e-15


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
        map_grid(pauli_generator(SIGNED), t, 1e-3)


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


def test_analytic_solution_overflows_to_inf_without_a_warning():
    # exp(800) overflows: libm's exp raises, and the closed form reads inf there as np.exp does.  The test
    # config turns a RuntimeWarning into an error, so this also checks that none is raised.
    n = analytic_pauli_solution((1.0, 0.0, 0.0), (1.0, -1.0, -1.0), 200.0)
    assert n.tolist() == [np.inf, 0.0, 0.0]


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
    m = map_grid(pauli_generator(SIGNED), 0.0, 1e-3)
    assert np.max(np.abs(m.superoperator - np.eye(4))) == 0.0


def test_extract_map_bloch_block_signed_rates():
    t = 0.3
    m = map_grid(pauli_generator(SIGNED), t, 1e-3)
    expected = np.diag([1.0, 1.0, np.exp(-4.0 * t)])
    assert np.max(np.abs(bloch_block(m) - expected)) <= 1e-9


def test_extract_map_bloch_block_isotropic():
    m = map_grid(pauli_generator((1.0, 1.0, 1.0)), 0.5, 1e-3)
    assert np.max(np.abs(bloch_block(m) - np.exp(-2.0) * np.eye(3))) <= 1e-9


def test_map_grid_matches_per_time_extraction():
    gen = pauli_generator(SIGNED)
    times = [0.05, 0.1, 0.25]
    grid = map_grid(gen, times, 1e-3).superoperator
    assert grid.shape == (3, 4, 4)
    for k, t in enumerate(times):
        assert np.array_equal(grid[k], map_grid(gen, t, 1e-3).superoperator)


@pytest.mark.parametrize("seed", range(4))
def test_map_grid_entries_are_bitwise_their_own_extraction(seed):
    # An entry's products depend on its step count alone, whatever else the grid holds.
    rng = np.random.default_rng(seed)
    gen = _random_generator(30 + seed) if seed % 2 else pauli_generator(rng.uniform(-1, 1, 3))
    steps = np.sort(rng.choice(np.arange(1, 300), size=7, replace=False))
    grid = map_grid(gen, steps * 1e-3, 1e-3).superoperator
    for k in (0, 3, 6):
        assert np.array_equal(grid[k], map_grid(gen, steps[k] * 1e-3, 1e-3).superoperator)


def _rk4_stability(z):
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


@pytest.mark.parametrize(
    "rates, t_final, grid_points", [((1.0, 1.0, -1.0), 1.0, 32), ((1.0, 1.0, 1.0), 1.0, 32), ((1.0, 1.0, -1.0), 4.0, 64)]
)
def test_grid_maps_match_the_rk4_pauli_channel_closed_form(rates, t_final, grid_points):
    # The Pauli generator is normal with Bloch eigenvalues mu_k = -2 (C - c_k), so n RK4 steps
    # multiply n_k by R(mu_k dt)^n, R the RK4 stability function.
    dt = 1e-3
    steps = report_indices(resolve_steps(t_final, dt), grid_points)
    grid = map_grid(pauli_generator(rates), steps * dt, dt).superoperator
    mu = -2.0 * (np.sum(rates) - np.array(rates))
    for n, s in zip(steps, grid):
        closed = pauli_channel_map(_rk4_stability(mu * dt) ** n).superoperator
        assert np.max(np.abs(s - closed)) <= 1e-13


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
        DynamicalMap(bad)
    # Trace preserving, but Lambda(E_01) = 2 E_01 is not the adjoint of Lambda(E_10) = E_10.
    skewed = np.eye(4, dtype=complex)
    skewed[1, 1] = 2.0
    with pytest.raises(ValidationError, match="not Hermiticity preserving"):
        DynamicalMap(skewed)


def test_dynamical_map_checks_hermiticity_relative_to_its_size():
    # At rates (1, -1, -1) the map at t = 100 has entries of 2.6e173, and its Choi
    # matrix is Hermitian to rounding of about 1e160, far above an absolute 1e-9.
    big = map_grid(pauli_generator((1.0, -1.0, -1.0)), [100.0], 1e-3).superoperator[0]
    assert np.abs(big).max() > 1e173
    DynamicalMap(big)
    skewed = big.copy()
    skewed[1, 1] *= 1.0 + 1e-6
    with pytest.raises(ValidationError, match="not Hermiticity preserving"):
        DynamicalMap(skewed)


def test_dynamical_map_checks_trace_relative_to_its_size():
    # RK4 at dt = 10 is unstable: after 4 steps the map has entries of 4.4e19, and
    # the 1 of tr Lambda(rho) = 1 is lost to rounding in the sums of its trace row.
    big = map_grid(pauli_generator(SIGNED), [40.0], 10.0).superoperator[0]
    assert np.abs(big).max() > 1e19
    DynamicalMap(big)
    skewed = big.copy()
    skewed[0, 0] *= 1.0 + 1e-6
    with pytest.raises(ValidationError, match="not trace preserving"):
        DynamicalMap(skewed)


def test_dynamical_map_refuses_nan():
    # Non-finite entries are refused by name before the trace check, whose inf * 0
    # would otherwise warn (and so fail under `error::RuntimeWarning`).
    for entry in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="^dynamical map overflowed: 16 of its entries are not finite$"):
            DynamicalMap(np.full((4, 4), entry))
    # A map built from non-finite multipliers is refused where it is built, naming them.
    with pytest.raises(ValidationError, match="^Bloch multiplier 0 is not finite$"):
        pauli_channel_map([np.inf, 0.0, 0.0])
    with pytest.raises(ValidationError, match="^Bloch multiplier 1 is not finite$"):
        pauli_channel_map([0.5, np.nan, -np.inf])


def test_a_map_stack_is_refused_naming_its_first_failing_index():
    eye = np.eye(4, dtype=complex)
    bad = eye.copy()
    bad[0, 0] = 1.5
    nan = np.full((4, 4), np.nan)
    with pytest.raises(ValidationError, match="dynamical map 2 is not trace preserving"):
        DynamicalMap(np.stack([eye, eye, bad, eye]))
    # Finiteness is checked over the whole stack first.
    with pytest.raises(ValidationError, match="dynamical map 3 overflowed: 16 of its entries"):
        DynamicalMap(np.stack([eye, eye, bad, nan]))
    with pytest.raises(ValidationError, match="dynamical map 1 overflowed"):
        DynamicalMap(np.stack([eye, nan, bad]))
    with pytest.raises(ValidationError, match=r"dynamical map \(1, 0\) overflowed"):
        DynamicalMap(np.stack([[eye, eye], [nan, eye]]))
    skewed = eye.copy()
    skewed[1, 1] = 2.0
    with pytest.raises(ValidationError, match="dynamical map 1 is not Hermiticity preserving"):
        DynamicalMap(np.stack([eye, skewed]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: MasterGenerator(np.zeros((2, 2)), ((1.0, np.eye(3)),)),
            DimensionError,
            r"channel operator shape \(3, 3\) does not match d = 2",
        ),
        (
            lambda: positivity_verdict(map_grid(pauli_generator(SIGNED), 0.0, 1e-3), 0, seed=1),
            ValidationError,
            "need at least one sample, got 0",
        ),
    ],
    ids=["operator-shape", "no-samples"],
)
def test_malformed_input_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 3), (4, 4, 2)])
def test_dynamical_map_refuses_shapes_that_are_not_square_d2(shape):
    with pytest.raises(DimensionError):
        DynamicalMap(np.zeros(shape))


@pytest.mark.parametrize("rates", [SIGNED, (1.0, 1.0, 1.0), (1.0, -1.0, -1.0)])
def test_stacked_map_views_equal_each_lone_map_bitwise(rates):
    # 3 maps meet all 3 Pauli matrices and all 3 samples each, never one apiece.
    gen = pauli_generator(rates)
    times = [0.1, 0.2, 0.3]
    stack = map_grid(gen, times, 1e-3)
    blocks, verdict = bloch_block(stack), positivity_verdict(stack, 3, seed=1)
    assert blocks.shape == (3, 3, 3)
    assert verdict.positive_on_samples.shape == verdict.min_output_eigenvalue.shape == (3,)
    for k, t in enumerate(times):
        lone = map_grid(gen, t, 1e-3)
        lone_verdict = positivity_verdict(lone, 3, seed=1)
        assert blocks[k].tobytes() == bloch_block(lone).tobytes()
        assert np.shape(lone_verdict.min_output_eigenvalue) == ()
        assert verdict.min_output_eigenvalue[k] == lone_verdict.min_output_eigenvalue
        assert verdict.positive_on_samples[k] == lone_verdict.positive_on_samples


def test_extract_map_builds_and_checks_one_map(monkeypatch):
    built = []
    check = DynamicalMap.__post_init__

    def counted(m):
        built.append(m.superoperator.shape)
        check(m)

    monkeypatch.setattr(DynamicalMap, "__post_init__", counted)
    m = map_grid(pauli_generator(SIGNED), 0.25, 1e-3)
    assert built == [(4, 4)]
    assert m.superoperator.shape == (4, 4)


def test_map_grid_takes_one_time_or_a_1d_grid():
    gen = pauli_generator(SIGNED)
    assert map_grid(gen, 0.25, 1e-3).superoperator.tobytes() == map_grid(gen, [0.25], 1e-3).superoperator.tobytes()
    with pytest.raises(DimensionError, match="1-D grid"):
        map_grid(gen, [[0.1, 0.2]], 1e-3)


def test_apply_map_broadcasts_stack_axes_against_operand_batch_axes():
    gen = _random_generator(25)
    times = [0.1, 0.2, 0.3]
    stack = map_grid(gen, times, 1e-3)
    lone = [map_grid(gen, t, 1e-3) for t in times]
    rng = np.random.default_rng(26)
    rhos = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    one_each = apply_map(stack, rhos)
    every_map = apply_map(stack, rhos[0])
    assert one_each.shape == every_map.shape == (3, 3, 3)
    for k, m in enumerate(lone):
        assert np.max(np.abs(one_each[k] - apply_map(m, rhos[k]))) <= 1e-15
        assert np.max(np.abs(every_map[k] - apply_map(m, rhos[0]))) <= 1e-15
    assert apply_map(lone[0], rhos).shape == (3, 3, 3)


def test_integrate_master_takes_a_stack_of_densities():
    gen = pauli_generator(SIGNED)
    rhos = np.stack([_bloch_density(n) for n in ([0.3, -0.4, 0.5], [0.0, 0.0, 1.0])]).astype(complex)
    out = integrate_master(rhos, gen, 0.2, 1e-3)
    for k in range(2):
        assert np.max(np.abs(out[k] - integrate_master(rhos[k], gen, 0.2, 1e-3))) <= 1e-15
    rhos[1, 0, 0] += 0.5
    with pytest.raises(ValidationError, match="density matrix 1 must have unit trace"):
        integrate_master(rhos, gen, 0.2, 1e-3)



def test_choi_of_identity_map():
    verdict = cp_verdict(choi_matrix(map_grid(pauli_generator(SIGNED), 0.0, 1e-3)))
    assert verdict.cp
    assert abs(verdict.min_eigenvalue) <= 1e-12


def test_pauli_channel_choi_spectrum_brute_force():
    # Verify the q-spectrum formula on random diagonal Bloch maps before
    # relying on it: raw Choi eigenvalues must equal 2 q.
    rng = np.random.default_rng(4)
    for _ in range(30):
        lam = rng.uniform(-1, 1, size=3)
        choi = choi_matrix(pauli_channel_map(lam))
        got = np.sort(np.linalg.eigvalsh(choi))
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
    m = map_grid(pauli_generator(SIGNED), 0.25, 1e-3)
    verdict = cp_verdict(choi_matrix(m))
    assert not verdict.cp
    assert abs(verdict.min_eigenvalue - (np.exp(-1.0) - 1.0) / 4.0) <= 1e-6
    assert abs(verdict.min_eigenvalue - (-0.1580301)) <= 1e-6


def test_choi_isotropic_rates_is_cp():
    m = map_grid(pauli_generator((1.0, 1.0, 1.0)), 0.5, 1e-3)
    verdict = cp_verdict(choi_matrix(m))
    assert verdict.cp
    lam = np.exp(-2.0)
    q_min = (1.0 - lam) / 4.0  # smallest of the q-spectrum at (lam, lam, lam)
    assert verdict.min_eigenvalue >= -1e-9
    assert abs(verdict.min_eigenvalue - q_min) <= 1e-6


def test_choi_minimum_approaches_negative_quarter():
    verdict = cp_verdict(choi_matrix(map_grid(pauli_generator(SIGNED), 5.0, 1e-3)))
    assert abs(verdict.min_eigenvalue - (-0.25)) <= 1e-6


def test_choi_minimum_curve_frozen_values():
    # (e^{-4t} - 1)/4 at t = 0.1, 0.25, 0.5.
    expected = [-0.0824199884910902, -0.1580301397071394, -0.2161661791908468]
    maps = map_grid(pauli_generator(SIGNED), [0.1, 0.25, 0.5], 1e-3)
    for got, want in zip(cp_verdict(choi_matrix(maps)).min_eigenvalue, expected):
        assert abs(got - want) <= 1e-5


def test_choi_minimum_is_decreasing_in_time():
    times = np.round(np.arange(1, 11) * 0.1, 10)
    minima = cp_verdict(choi_matrix(map_grid(pauli_generator(SIGNED), times, 1e-3))).min_eigenvalue
    assert all(b < a for a, b in zip(minima, minima[1:]))


def test_stacked_cp_verdict_matches_each_maps_own():
    gen = _random_generator(27)
    times = np.round(np.arange(1, 6) * 0.05, 10)
    stacked = cp_verdict(choi_matrix(map_grid(gen, times, 1e-3)))
    assert stacked.cp.shape == stacked.min_eigenvalue.shape == (5,)
    for k, t in enumerate(times):
        lone = cp_verdict(choi_matrix(map_grid(gen, t, 1e-3)))
        assert np.shape(lone.min_eigenvalue) == ()
        assert stacked.cp[k] == lone.cp
        assert stacked.min_eigenvalue[k] == lone.min_eigenvalue


def test_positivity_of_identity_map():
    verdict = positivity_verdict(map_grid(pauli_generator(SIGNED), 0.0, 1e-3), 2000, seed=8)
    assert verdict.positive_on_samples
    assert abs(verdict.min_output_eigenvalue) <= 1e-12


def test_positivity_of_signed_rate_map():
    m = map_grid(pauli_generator(SIGNED), 0.25, 1e-3)
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
    m = map_grid(gen, 0.2, 1e-3)
    rho0 = _bloch_density(np.array([0.1, 0.6, -0.3])).astype(complex)
    direct = integrate_master(rho0, gen, 0.2, 1e-3)
    assert np.max(np.abs(apply_map(m, rho0) - direct)) <= 1e-12


def test_positivity_sampling_is_reproducible():
    m = map_grid(pauli_generator(SIGNED), 0.25, 1e-3)
    a = positivity_verdict(m, 500, seed=3)
    b = positivity_verdict(m, 500, seed=3)
    assert a.min_output_eigenvalue == b.min_output_eigenvalue
