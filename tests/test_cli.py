import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssesim import cli, rng, sse

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
README_COMMAND_LINE = README[README.index("## Command line"):README.index("### Config file")]


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
        (["choi"], {"format": "xml"}),
        (["choi"], {"output": ["a.csv"]}),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["choi", "--trajectories", "5"],
        ["choi", "--threads", "2"],
        ["identity", "--t-final", "3"],
        ["identity", "--dt", "0.01"],
        ["param", "--c1", "7"],
        ["param", "--init-bloch", "1,0,0"],
    ],
)
def test_flag_the_subcommand_ignores_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _subparsers() -> dict:
    (action,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", sorted(cli._DEFAULTS))
def test_flags_are_the_config_keys_of_their_subcommand(command):
    config_only = {"initial_state", "hamiltonian", "lindblads", "noise_matrix"}
    dests = {a.dest for a in _subparsers()[command]._actions if a.option_strings} - {"help", "config"}
    assert dests == set(cli._DEFAULTS[command]) - config_only


def _readme_command_lines() -> list:
    argvs, fenced = [], False
    for line in README_COMMAND_LINE.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("ssesim "):
            argvs.append(shlex.split(line, comments=True)[1:])
    return argvs


def test_readme_documents_every_subcommand():
    argvs = _readme_command_lines()
    assert {argv[0] for argv in argvs} == set(cli._DEFAULTS)
    assert len(argvs) >= 2 * len(cli._DEFAULTS)


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_line_parses(argv):
    cli._build_parser().parse_args(argv)


def test_readme_flag_lists_match_the_parser():
    documented = {}
    for name, text in re.findall(r"^- (`\w+`|every subcommand): (.*)$", README_COMMAND_LINE, flags=re.M):
        documented[name.strip("`")] = set(re.findall(r"--[a-z][a-z0-9-]*", text))
    shared = documented.pop("every subcommand")
    assert set(documented) == set(cli._DEFAULTS)
    for command, sub in _subparsers().items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert documented[command] | shared == flags, command


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


def test_identity_pass_fail_only_for_the_exact_signed_rates(capsys):
    # One ulp from (1, 1, -1) is another rate vector: its residual is reported, not judged.
    code, report = _run(capsys, ["identity", "--trajectories", "20", "--c3", repr(float(np.nextafter(-1.0, 0.0)))])
    assert code == 0
    assert report["verdict"] == "INFO"


@pytest.mark.parametrize("argv", [["identity", "--trajectories"], ["param", "--cases"]])
def test_record_counts_above_the_ceiling_exit_two(argv, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the count")

    for name in ("random_state", "random_correlation", "random_isometry", "random_orthogonal"):
        monkeypatch.setattr(cli, name, no_draw)
    assert cli.main(argv + [str(10**12)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"<= {cli.MAX_RECORDS}" in err


@pytest.mark.parametrize("command", ["unravel", "convergence"])
def test_trajectories_above_the_ceiling_exit_two(command, capsys, monkeypatch):
    def no_stepping(task):
        raise AssertionError("stepped a block before checking the count")

    monkeypatch.setattr(sse, "_block_partials", no_stepping)
    assert cli.main([command, "--trajectories", str(10**12)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"<= {sse.MAX_TRAJECTORIES}" in err


@pytest.mark.parametrize("command", ["unravel", "convergence", "choi"])
def test_grid_points_above_the_ceiling_exit_two(command, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the grid points")

    monkeypatch.setattr(sse, "_block_partials", no_work)
    monkeypatch.setattr(cli, "map_grid", no_work)
    assert cli.main([command, "--grid-points", str(cli.MAX_RECORDS + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"<= {cli.MAX_RECORDS}" in err


def test_ensemble_above_the_byte_bound_exits_two(capsys, monkeypatch):
    # One 64-trajectory block of 10^6 grid points would record 4 GB of projectors.
    def no_stepping(task):
        raise AssertionError("stepped a block before checking the memory bound")

    monkeypatch.setattr(sse, "_block_partials", no_stepping)
    argv = ["unravel", "--t-final", "1000", "--grid-points", "1000000", "--trajectories", "64"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(sse.MAX_ENSEMBLE_BYTES) in err


def test_unravel_refuses_a_qutrit_model_before_stepping(tmp_path, capsys, monkeypatch):
    def no_stepping(task):
        raise AssertionError("stepped a block of a qutrit model")

    monkeypatch.setattr(sse, "_block_partials", no_stepping)
    lower = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    cfg = {
        "model": "general",
        "hamiltonian": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        "lindblads": [lower],
        "noise_matrix": [[1]],
        "initial_state": [0, [0, 1], 0],
    }
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["unravel", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "qubit" in err


def test_param_orthogonal_entries_above_the_ceiling_exit_two(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking n_wiener")

    monkeypatch.setattr(rng, "normals", no_draw)
    assert cli.main(["param", "--n-wiener", "100000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"<= {cli.MAX_ORTHOGONAL_ENTRIES}" in err


def test_param_collapse_exits_two_naming_the_case(capsys):
    assert cli.main(["param", "--cases", "3", "--dt", "1e200", "--witness-steps", "1"]) == 2
    assert "error: witness case 0 collapsed at step 0" in capsys.readouterr().err


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


def test_convergence_payloads_are_byte_identical_across_threads(tmp_path):
    base = ["convergence", "--trajectories", "300", "--t-final", "0.02", "--grid-points", "4", "--seed", "11"]
    blobs = []
    for threads in (1, 2, 3):
        path = tmp_path / f"t{threads}.csv"
        assert cli.main(base + ["--threads", str(threads), "--output", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_convergence_runs_every_level_on_one_pool(capsys, serial_pool):
    base = ["convergence", "--trajectories", "4196", "--t-final", "0.008", "--grid-points", "2"]
    serial = _run(capsys, base)[1]["records"]
    assert serial_pool.sizes == []
    assert _run(capsys, base + ["--threads", "2"])[1]["records"] == serial
    assert serial_pool.sizes == [2]
    # Two blocks per level, six in all: one pool is sized over every level.
    _run(capsys, base + ["--threads", "100"])
    assert serial_pool.sizes == [2, 6]


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
