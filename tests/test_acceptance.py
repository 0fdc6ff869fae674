"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import time

import numpy as np

from ssesim import cli
from ssesim.algebra import bloch_from_density, bloch_standard_error, pauli, random_state
from ssesim.master import (
    choi_matrix,
    cp_verdict,
    integrate_master,
    map_grid,
    pauli_generator,
    positivity_verdict,
)
from ssesim.param import (
    correlation_from_noise,
    noise_from_correlation,
    random_correlation,
    random_isometry,
    random_orthogonal,
    redundancy_witness,
)
from ssesim.sse import (
    GeneralDiffusiveModel,
    NonCpQubitModel,
    ensemble_density,
    identity_residual,
    simulate_trajectory,
)

SIGNED = (1.0, 1.0, -1.0)
GROUND = np.array([1.0, 0.0], dtype=complex)
E_INV = np.exp(-1.0)


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def _pole_states() -> np.ndarray:
    phases = np.exp(2j * np.pi * np.arange(5) / 5.0)
    north = np.stack([phases, np.zeros_like(phases)], axis=-1)
    south = np.stack([np.zeros_like(phases), phases], axis=-1)
    return np.concatenate([north, south])


def test_criterion_1_projector_identity():
    start = time.perf_counter()
    states = np.concatenate([random_state(7, 2, np.arange(10000)), _pole_states()])
    worst = float(np.max(identity_residual(states)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    print(f"  residual {worst:.3e} over {len(states)} states in {elapsed:.2f} s")
    _verdict(1, "projector identity residual <= 1e-12 on 10^4 states (+poles), < 1 s", ok)


def test_criterion_2_ensemble_reproduces_noncp_master_equation():
    dt, n_traj = 1e-3, 20000
    start = time.perf_counter()
    est = ensemble_density(NonCpQubitModel(), GROUND, 0.25, dt, n_traj, seed=42)
    elapsed = time.perf_counter() - start
    mean = bloch_from_density(est.mean_density)[-1]
    se = bloch_standard_error(est.density_standard_error)[-1]
    bound = 3.0 * se + 2.0 * dt
    dev = np.abs(mean - np.array([0.0, 0.0, E_INV]))
    ok = bool(np.all(dev <= bound) and se[2] <= 0.0075 and elapsed < 60.0)
    print(
        f"  n(0.25) = {mean}, target (0, 0, {E_INV:.7f}), dev {dev}, bound {bound}, "
        f"SE3 {se[2]:.5f}, {elapsed:.1f} s"
    )
    _verdict(2, "ensemble mean matches the signed-rate master equation at t = 0.25", ok)


def test_criterion_3_noncp_certification():
    dt = 1e-3
    start = time.perf_counter()
    times = np.round(np.arange(1, 21) * 0.05, 10)
    minima = cp_verdict(choi_matrix(map_grid(pauli_generator(SIGNED), times, dt))).min_eigenvalue
    elapsed = time.perf_counter() - start
    at_quarter = minima[np.argmin(np.abs(times - 0.25))]
    target = (E_INV - 1.0) / 4.0
    ok = bool(
        abs(at_quarter - target) <= 1e-5
        and abs(at_quarter - (-0.1580301)) <= 1e-5
        and np.all(minima < 0.0)
        and elapsed < 1.0
    )
    print(f"  min eig(0.25) = {at_quarter:.7f} (target {target:.7f}), all negative: "
          f"{bool(np.all(minima < 0))}, {elapsed:.2f} s")
    _verdict(3, "min Choi eigenvalue equals (1/e - 1)/4 at t = 0.25 and stays negative", ok)


def test_criterion_4_positivity_despite_noncp():
    gen = pauli_generator(SIGNED)
    worst = min(
        positivity_verdict(map_grid(gen, t, 1e-3), 10000, seed=77).min_output_eigenvalue
        for t in (0.25, 1.0)
    )
    ok = worst >= -1e-9
    print(f"  worst output eigenvalue over 10^4 states at t in (0.25, 1.0): {worst:.3e}")
    _verdict(4, "the non-CP map stays positive on 10^4 random pure states", ok)


def test_criterion_5_cp_control_case():
    dt, n_traj = 1e-3, 20000
    model = GeneralDiffusiveModel(np.zeros((2, 2)), tuple(pauli(k) for k in (1, 2, 3)), np.eye(3))
    est = ensemble_density(model, GROUND, 0.25, dt, n_traj, seed=11, threads=2)
    mean = bloch_from_density(est.mean_density)[-1]
    bound = 3.0 * bloch_standard_error(est.density_standard_error)[-1] + 2.0 * dt
    dev = np.abs(mean - np.array([0.0, 0.0, np.exp(-4.0 * 0.25)]))
    verdict = cp_verdict(choi_matrix(map_grid(pauli_generator((1, 1, 1)), 0.25, dt)))
    ok = bool(np.all(dev <= bound) and verdict.min_eigenvalue >= -1e-9)
    print(f"  isotropic decay dev {dev} vs bound {bound}; min Choi eig {verdict.min_eigenvalue:.3e}")
    _verdict(5, "general-model ensemble reproduces e^{-4t} decay and the map is CP", ok)


def test_criterion_6_orthogonal_redundancy():
    h = np.array([[0.15, 0.2], [0.2, -0.15]], dtype=complex)
    lindblads = (0.5 * pauli(3), 0.4 * pauli(1))
    worst_s, worst_path = 0.0, 0.0
    for case in range(100):
        n = 1 + case % 2
        big_n = n + case % (5 - n)
        u = random_isometry(6, big_n, n, case)
        orth = random_orthogonal(6, big_n, case)
        witness = redundancy_witness(
            u, orth, h, lindblads[:n], random_state(6, 2, case), 0.1, 1e-3,
            seed=6, trajectory_id=case,
        )
        worst_s = max(worst_s, witness.s_deviation)
        worst_path = max(worst_path, witness.max_pathwise_deviation)
    ok = worst_s <= 1e-12 and worst_path <= 1e-12
    print(f"  worst s deviation {worst_s:.3e}, worst pathwise deviation {worst_path:.3e}")
    _verdict(6, "u and Ou give identical correlations and identical 100-step paths", ok)


def test_criterion_7_round_trip():
    start = time.perf_counter()
    worst_rt, worst_iso = 0.0, 0.0
    for case in range(1000):
        n = 1 + case % 4
        s = random_correlation(13, n, case)
        u = noise_from_correlation(s)
        worst_rt = max(worst_rt, float(np.max(np.abs(correlation_from_noise(u) - s))))
        worst_iso = max(worst_iso, float(np.max(np.abs(u.conj().T @ u - np.eye(n)))))
    elapsed = time.perf_counter() - start
    ok = worst_rt <= 1e-10 and worst_iso <= 1e-10 and elapsed < 5.0
    print(f"  worst round trip {worst_rt:.3e}, worst isometry {worst_iso:.3e}, {elapsed:.2f} s")
    _verdict(7, "noise/correlation round trip within 1e-10 on 10^3 matrices, < 5 s", ok)


def test_criterion_8_gauge_invariance():
    psi0 = np.array([0.6, 0.8j], dtype=complex)

    def gauge(psi, dw, dt):
        return 1.3 * float(dw[0]) + 0.21 + float(np.abs(psi[1]))

    plain = simulate_trajectory(NonCpQubitModel(), psi0, 0.25, 1e-3, seed=3, trajectory_id=1)
    gauged = simulate_trajectory(
        NonCpQubitModel(), psi0, 0.25, 1e-3, seed=3, trajectory_id=1, gauge=gauge
    )
    proj_plain = np.einsum("si,sj->sij", plain.states, plain.states.conj())
    proj_gauged = np.einsum("si,sj->sij", gauged.states, gauged.states.conj())
    worst = float(np.max(np.sqrt(np.sum(np.abs(proj_plain - proj_gauged) ** 2, axis=(1, 2)))))
    ok = worst <= 1e-13
    print(f"  max per-step projector Frobenius difference {worst:.3e}")
    _verdict(8, "per-step projector difference of a gauged trajectory <= 1e-13", ok)


def test_criterion_9_discretization_validity(tmp_path):
    path = tmp_path / "convergence.json"
    code = cli.main(
        [
            "convergence", "--dt", "0.0005", "--trajectories", "20000", "--threads", "2",
            "--format", "json", "--output", str(path),
        ]
    )
    report = json.loads(path.read_text(encoding="utf-8"))
    biases, floors = report["summary"]["biases"], report["summary"]["noise_floors"]
    trend_ok = code == 0 and report["verdict"] == "PASS"

    rho0 = np.diag([1.0, 0.0]).astype(complex)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        rho = integrate_master(rho0, pauli_generator(SIGNED), 0.5, dt)
        errors.append(abs((rho[0, 0] - rho[1, 1]).real - np.exp(-2.0)))
    orders = [float(np.log2(errors[i - 1] / errors[i])) for i in (1, 2)]
    ok = trend_ok and min(orders) >= 3.7
    print(f"  biases {biases} vs floors {floors}; RK4 orders {orders}")
    _verdict(9, "ensemble bias non-increasing or below noise floor; RK4 order >= 3.7", ok)


def test_criterion_10_thread_count_determinism(tmp_path):
    est_serial = ensemble_density(NonCpQubitModel(), GROUND, 0.25, 1e-3, 20000, seed=42, threads=1)
    est_parallel = ensemble_density(NonCpQubitModel(), GROUND, 0.25, 1e-3, 20000, seed=42, threads=4)
    api_ok = (
        est_serial.mean_density.tobytes() == est_parallel.mean_density.tobytes()
        and bloch_standard_error(est_serial.density_standard_error).tobytes()
        == bloch_standard_error(est_parallel.density_standard_error).tobytes()
    )

    payloads = []
    for threads, name in ((1, "t1.csv"), (3, "t3.csv")):
        path = tmp_path / name
        code = cli.main(
            [
                "unravel", "--trajectories", "4000", "--t-final", "0.1", "--seed", "42",
                "--threads", str(threads), "--output", str(path),
            ]
        )
        assert code == 0
        payloads.append(path.read_bytes())
    cli_ok = payloads[0] == payloads[1]
    ok = api_ok and cli_ok
    print(f"  ensemble bytes identical: {api_ok}; CLI payload bytes identical: {cli_ok}")
    _verdict(10, "identical seeds give byte-identical payloads for any thread count", ok)
