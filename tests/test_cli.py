import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssesim import cli


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_unravel_passes_and_exits_zero(capsys):
    code, report = _run(
        capsys,
        ["unravel", "--trajectories", "1000", "--t-final", "0.1", "--seed", "42"],
    )
    assert code == 0
    assert report["verdict"] == "PASS"
    assert report["config"]["trajectories"] == 1000
    assert report["summary"]["max_abs_deviation"] <= report["summary"]["deviation_bound"]
    assert len(report["records"]) == 32


def test_unravel_zero_time_has_zero_deviation(capsys):
    code, report = _run(capsys, ["unravel", "--trajectories", "10", "--t-final", "0"])
    assert code == 0
    assert report["verdict"] == "PASS"
    assert report["summary"]["max_abs_deviation"] == 0.0


def test_unravel_single_trajectory_is_inconclusive(capsys):
    code, report = _run(capsys, ["unravel", "--trajectories", "1", "--t-final", "0.05"])
    assert code == 0
    assert report["verdict"].startswith("INCONCLUSIVE")


def test_unravel_failure_exit_code(capsys, monkeypatch):
    # Force a verdict failure by corrupting the reference curve.
    def wrong_reference(n0, rates, t):
        return np.full((len(t), 3), 0.5)

    monkeypatch.setattr(cli, "analytic_pauli_solution", wrong_reference)
    code, report = _run(capsys, ["unravel", "--trajectories", "500", "--t-final", "0.05"])
    assert code == 1
    assert report["verdict"] == "FAIL"


def test_invalid_config_value_exits_two(capsys):
    assert cli.main(["unravel", "--dt", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, file_cfg",
    [
        (["choi", "--dt", "nan"], None),
        (["unravel", "--dt", "nan"], None),
        (["unravel", "--t-final", "inf"], None),
        (["unravel"], {"trajectories": "10"}),
        (["choi", "--c1", "nan"], None),
        (["identity", "--c1", "inf"], None),
        (["unravel", "--init-bloch", "nan,0,1"], None),
        (["choi"], {"grid_points": 2.5}),
        (["choi", "--t-final", "1e300"], None),
        (["unravel"], {"initial_state": ["a", 1]}),
        (["unravel"], {"initial_state": 5}),
        (["unravel"], {"initial_state": [None, 1]}),
        (
            ["unravel"],
            {"model": "general", "hamiltonian": [[0, 0], [0, 0]], "lindblads": 5, "noise_matrix": [[1]]},
        ),
        (["unravel"], {"model": "foo"}),
        (
            ["unravel", "--trajectories", "10"],
            {"model": "General", "hamiltonian": [[0, 0], [0, 0]], "lindblads": [[[0, 0], [0, 0]]], "noise_matrix": [[1]]},
        ),
    ],
)
def test_non_finite_or_mistyped_config_exits_two(argv, file_cfg, tmp_path, capsys):
    if file_cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        argv = argv + ["--config", str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_model_names_both_models(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "foo"}))
    assert cli.main(["unravel", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'noncp'" in err and "'general'" in err and "'foo'" in err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        cli.main(["unravel", "--bogus", "1"])
    assert info.value.code == 2


def test_unknown_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"no_such_key": 1}))
    assert cli.main(["unravel", "--config", str(path)]) == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trajectories": 50, "t_final": 0.05, "seed": 7}))
    code, report = _run(
        capsys, ["unravel", "--config", str(path), "--trajectories", "120"]
    )
    assert code == 0
    assert report["config"]["trajectories"] == 120  # flag wins
    assert report["config"]["t_final"] == 0.05
    assert report["config"]["seed"] == 7


def test_unravel_general_model_from_config(tmp_path, capsys):
    def mat(m):
        return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m]

    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sigma3 = np.diag([1.0, -1.0]).astype(complex)
    cfg = {
        "model": "general",
        "hamiltonian": mat(np.zeros((2, 2))),
        "lindblads": [mat(sigma1), mat(sigma2), mat(sigma3)],
        "noise_matrix": mat(np.eye(3)),
        "trajectories": 1500,
        "t_final": 0.1,
    }
    path = tmp_path / "general.json"
    path.write_text(json.dumps(cfg))
    code, report = _run(capsys, ["unravel", "--config", str(path)])
    assert code == 0
    assert report["verdict"] == "PASS"
    # isotropic decay reference at the final grid time
    assert abs(report["records"][-1]["analytic_n3"] - np.exp(-0.4)) <= 1e-9


def test_choi_curve_values_and_csv(tmp_path, capsys):
    out = tmp_path / "choi.csv"
    code, report = _run(
        capsys,
        ["choi", "--t-final", "0.25", "--grid-points", "1", "--output", str(out)],
    )
    assert code == 0
    assert report["verdict"] == "PASS"
    lines = out.read_text().splitlines()
    assert lines[0] == "t,min_choi_eig,min_choi_eig_raw,cp"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.25
    assert abs(float(fields[1]) - (-0.1580301)) <= 1e-5
    assert fields[3] == "0"


def test_choi_cp_case_passes(capsys):
    code, report = _run(
        capsys, ["choi", "--c3", "1", "--t-final", "0.5", "--grid-points", "8"]
    )
    assert code == 0
    assert report["summary"]["cp_everywhere"] is True


def test_choi_zero_time_grid(capsys):
    code, report = _run(capsys, ["choi", "--t-final", "0"])
    assert code == 0
    assert report["records"][0]["cp"] is True
    assert abs(report["records"][0]["min_choi_eig"]) <= 1e-12


def test_identity_command_passes(capsys):
    code, report = _run(capsys, ["identity", "--trajectories", "2000", "--seed", "7"])
    assert code == 0
    assert report["verdict"] == "PASS"
    assert report["summary"]["max_identity_residual"] <= 1e-12
    kinds = {r["kind"] for r in report["records"]}
    assert kinds == {"haar", "pole"}


def test_identity_informational_for_other_rates(capsys):
    code, report = _run(capsys, ["identity", "--trajectories", "50", "--c3", "1"])
    assert code == 0
    assert report["verdict"] == "INFO"
    assert report["summary"]["max_identity_residual"] > 1e-3


def test_param_command_passes(capsys):
    code, report = _run(capsys, ["param", "--cases", "15", "--seed", "3"])
    assert code == 0
    assert report["verdict"] == "PASS"
    assert report["summary"]["infeasible_rejected"] is True
    assert report["summary"]["max_pathwise_deviation"] <= 1e-12


def test_convergence_command_passes(capsys):
    code, report = _run(
        capsys,
        ["convergence", "--dt", "0.0005", "--trajectories", "1500", "--grid-points", "8"],
    )
    assert code == 0
    assert report["verdict"] == "PASS"
    assert report["summary"]["dt_levels"] == [0.002, 0.001, 0.0005]
    assert len(report["summary"]["biases"]) == 3


def test_convergence_runs_at_default_times(capsys):
    code, report = _run(capsys, ["convergence", "--trajectories", "200"])
    assert code in (0, 1)
    assert report["config"]["t_final"] == 0.256
    assert report["config"]["dt"] == 1e-3


def test_convergence_zero_time_has_zero_biases(capsys):
    code, report = _run(
        capsys, ["convergence", "--t-final", "0", "--trajectories", "20"]
    )
    assert code == 0
    assert report["verdict"] == "PASS"
    assert report["summary"]["biases"] == [0.0, 0.0, 0.0]


def test_payloads_are_byte_identical_across_threads(tmp_path):
    base = ["unravel", "--trajectories", "400", "--t-final", "0.05", "--seed", "11"]
    paths = []
    for threads, name in ((1, "a.csv"), (3, "b.csv")):
        path = tmp_path / name
        code = cli.main(base + ["--threads", str(threads), "--output", str(path)])
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_json_payload_reruns_identically(tmp_path):
    base = [
        "unravel", "--trajectories", "300", "--t-final", "0.05",
        "--format", "json", "--seed", "5",
    ]
    blobs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert cli.main(base + ["--output", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert "records" in payload and "threads" not in payload["config"]


def test_csv_floats_survive_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    assert cli.main(
        ["unravel", "--trajectories", "200", "--t-final", "0.05", "--output", str(path)]
    ) == 0
    header, first = path.read_text().splitlines()[:2]
    columns = header.split(",")
    assert columns[0] == "t"
    values = [float(x) for x in first.split(",")]
    assert len(values) == len(columns)


def test_module_entry_point_smoke():
    # The child imports the same package as this test, installed or not.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ssesim", "identity", "--trajectories", "100"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "PASS"


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
