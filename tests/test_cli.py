import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssesim import cli, master, rng, sse
from ssesim.master import DynamicalMap

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
    # Only t = 0 is compared, so nothing was tested.
    code, report = _run(capsys, ["unravel", "--trajectories", "10", "--t-final", "0"])
    assert code == 0
    assert report["verdict"] == "INCONCLUSIVE (no positive report time)"
    assert report["summary"]["max_abs_deviation"] == 0.0


def test_unravel_single_trajectory_is_inconclusive(capsys):
    code, report = _run(capsys, ["unravel", "--trajectories", "1", "--t-final", "0.05"])
    assert code == 0
    assert report["verdict"].startswith("INCONCLUSIVE")


def test_unravel_with_every_bound_at_least_two_is_inconclusive(capsys):
    # 3 se + 2 dt >= 20 at every positive time, while no Bloch deviation exceeds 2.
    code, report = _run(capsys, ["unravel", "--dt", "10", "--t-final", "10", "--trajectories", "10"])
    assert code == 0
    assert report["verdict"] == "INCONCLUSIVE (every deviation bound >= 2)"
    assert report["summary"]["max_standard_error"] <= 0.5


def test_noncp_unravel_leaves_an_overflowed_rk4_cross_check_unreported(capsys):
    # dt = 10 is far past RK4's stability limit, so its map overflows, while the
    # verdict reads only the analytic reference.
    argv = ["unravel", "--dt", "10", "--t-final", "10000", "--trajectories", "10", "--grid-points", "2"]
    code, report = _run(capsys, argv)
    assert (code, report["verdict"]) == (0, cli._VERDICT_UNBOUNDED)
    assert report["summary"]["master_vs_reference"] is None


def test_general_unravel_refuses_an_overflowed_reference_map(tmp_path, capsys):
    # The general model's verdict needs its RK4 reference, so an overflow stays an error.
    cfg = {
        "model": "general",
        "hamiltonian": [[0, 0], [0, 0]],
        "lindblads": [[[0, 1], [1, 0]], [[0, [0, -1]], [[0, 1], 0]], [[1, 0], [0, -1]]],
        "noise_matrix": np.eye(3).tolist(),
    }
    path = tmp_path / "general.json"
    path.write_text(json.dumps(cfg))
    argv = ["unravel", "--config", str(path), "--dt", "10", "--t-final", "10000", "--trajectories", "10", "--grid-points", "2"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "overflowed" in err and err.count("\n") == 1


def test_unravel_failure_exit_code(capsys, monkeypatch):
    # Force a verdict failure by corrupting the reference curve.
    def wrong_reference(n0, rates, t):
        return np.full((len(t), 3), 0.5)

    monkeypatch.setattr(cli, "analytic_pauli_solution", wrong_reference)
    code, report = _run(capsys, ["unravel", "--trajectories", "500", "--t-final", "0.05"])
    assert code == 1
    assert report["verdict"] == "FAIL"


def _drifting_reference(real):
    # Each finer dt level meets a reference 0.5 further off, so the bias grows as dt shrinks.
    offsets = iter([0.0, 0.5, 1.0])
    return lambda n0, rates, t: real(n0, rates, t) + next(offsets)


# Per command: the `cli` name replaced, the replacement built from the real
# one, and an argv that then gives a FAIL verdict.
_FORCED_FAILURES = {
    # The maps of the CP rates (1, 1, 1) are CP beyond rounding at every positive time
    # (smallest minimum 0.029, at t = 0.031), which refutes the signed-rate claim.
    "choi": (
        "map_grid",
        lambda real: lambda gen, times, dt: real(master.pauli_generator((1, 1, 1)), times, dt),
        ["choi"],
    ),
    # Every residual moves by 1e-9, above the 1e-12 bound.
    "identity": (
        "identity_residual",
        lambda real: lambda states: real(states) + 1e-9,
        ["identity", "--trajectories", "100"],
    ),
    # Scaling each s of the stack to spectral norm 1 makes 2I feasible, so it is no longer rejected.
    "param": (
        "noise_from_correlation",
        lambda real: lambda s: real(s / np.maximum(1.0, np.linalg.norm(s, 2, axis=(-2, -1)))[..., None, None]),
        ["param", "--cases", "3", "--witness-steps", "2"],
    ),
    "convergence": (
        "analytic_pauli_solution",
        _drifting_reference,
        ["convergence", "--trajectories", "500", "--t-final", "0.016", "--grid-points", "4"],
    ),
}


@pytest.mark.parametrize("command", list(_FORCED_FAILURES))
def test_verdict_failure_exits_one(capsys, monkeypatch, command):
    name, replacement, argv = _FORCED_FAILURES[command]
    monkeypatch.setattr(cli, name, replacement(getattr(cli, name)))
    code, report = _run(capsys, argv)
    assert code == 1
    assert report["verdict"] == "FAIL"


def test_param_fails_on_a_witness_column_alone(capsys, monkeypatch):
    # 2I is still refused; only s_deviation moves by 1e-9, above its 1e-12 bound.
    real = cli.redundancy_witness

    def shifted(*args):
        witness = real(*args)
        witness.s_deviation += 1e-9
        return witness

    monkeypatch.setattr(cli, "redundancy_witness", shifted)
    code, report = _run(capsys, ["param", "--cases", "3", "--witness-steps", "2"])
    assert (code, report["verdict"]) == (1, "FAIL")
    assert report["summary"]["infeasible_rejected"] is True


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
        (["choi", "--c2", "inf"], None),
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
        (["choi"], [1, 2]),
        (["unravel", "--model", "general"], {"hamiltonian": [[0, 0], [0]], "lindblads": [[[0, 1], [0, 0]]], "noise_matrix": [[1]]}),
        (["unravel", "--model", "general"], {"hamiltonian": [[0, 0], [0, 0]], "lindblads": [[[0, 1], [0, 0]]]}),
    ],
)
def test_non_finite_or_mistyped_config_exits_two(argv, file_cfg, tmp_path, capsys):
    if file_cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        argv = argv + ["--config", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_a_bloch_flag_of_two_numbers_exits_two_with_one_error_line(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["unravel", "--init-bloch=1,2"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.endswith("error: argument --init-bloch: expected three comma-separated numbers\n")


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
        ["unravel", "--c1", "2"],
        ["convergence", "--c3", "1"],
        ["identity", "--c1", "2"],
    ],
)
def test_flag_the_subcommand_ignores_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# The exit-code contract over generated configs: each command's own keys, as flags or in a config
# file, with valid values and invalid ones.  Valid sizes stay small, so an example runs in milliseconds.

# Integers a JSON config may give for any number: past int64, and past the float range.
_HUGE_INTS = [2**63, 10**300, 10**400]
_EDGE_FLOATS = [math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e300, -0.0, *_HUGE_INTS]
_EDGE_INTS = [0, -1, 10**30, *_HUGE_INTS]
_WRONG_TYPES = [None, True, "1", 1.5, [1.0], {"x": 1}]
_UNIT_BLOCHS = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.0, 0.8), (0.0, -1.0, 0.0)]
_BAD_TRIPLES = [(math.nan, 0.0, 1.0), (1.0, 0.0), (2.0, 0.0, 0.0), (1e300, 0.0, 0.0), (10**400, 0, 0), (1, 0, 0, 0), "0,0,1"]
_BAD_MATRICES = [
    5, [], [[1, 0]], [[None, 0], [0, 0]], [["a", 0], [0, 0]], [[1e308, 1e308], [1e308, 1e308]], [[10**400, 0], [0, 0]],
    [[[1, 0]]],
]
_BAD_STATES = [5, [], [None, 1], ["a", 1], [[1e308, 1e308], 0], [10**400, 0], [1, 0, 0], [2, 0], [[1, 2, 3], 0]]
# Keys a run always sets unless drawn, which bound its size.
_SMALL = {
    "unravel": {"trajectories": 8, "t_final": 0.016, "grid_points": 4},
    "choi": {"t_final": 0.1, "grid_points": 4},
    "identity": {"trajectories": 50},
    "param": {"cases": 5, "witness_steps": 10},
    "convergence": {"trajectories": 8, "t_final": 0.016, "grid_points": 4},
}


def _valid_values(key):
    kind = cli._KEYS[key].kind
    if key in ("hamiltonian", "lindblads", "noise_matrix"):
        return st.just(_GENERAL_CONFIG[key])
    valid = {
        "t_final": st.sampled_from([0.0, 0.004, 0.016, 0.5]),
        "dt": st.sampled_from([1e-3, 2e-3, 4e-3, 0.5]),
        "trajectories": st.integers(1, 40),
        "seed": st.integers(-(2**70), 2**70),
        "grid_points": st.integers(1, 8),
        "initial_bloch": st.sampled_from(_UNIT_BLOCHS),
        "initial_state": st.sampled_from([[1, 0], [0.6, [0, 0.8]], [[0, 1], 0]]),
        "n_lindblad": st.integers(1, 4),
        "n_wiener": st.integers(1, 5),
        "cases": st.integers(1, 10),
        "witness_steps": st.integers(1, 20),
    }
    if key in valid:
        return valid[key]
    return st.sampled_from(kind) if isinstance(kind, tuple) else st.floats(-2.0, 2.0)


def _invalid_values(key):
    kind = cli._KEYS[key].kind
    edges = {float: _EDGE_FLOATS, int: _EDGE_INTS, cli._parse_triple: _BAD_TRIPLES}.get(kind, [])
    if key == "initial_state":
        edges = _BAD_STATES
    elif kind is None:
        edges = _BAD_MATRICES
    elif isinstance(kind, tuple):
        edges = [kind[0].upper(), "xml"]
    return st.sampled_from(edges + _WRONG_TYPES)


def _flag_text(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(cli._DEFAULTS)))
    keys = sorted(set(cli._DEFAULTS[command]) - {"threads", "output", "format"})
    file_cfg = dict(_SMALL[command])
    if draw(st.booleans()) and command == "unravel":
        file_cfg.update(_GENERAL_CONFIG)
    argv = [command]
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=4)):
        value = draw(st.one_of(_valid_values(key), _invalid_values(key)))
        flag = cli._KEYS[key].flag
        if flag is not None and draw(st.booleans()):
            argv.append(f"{flag}={_flag_text(value)}")
        else:
            file_cfg[key] = value
    if "threads" in cli._DEFAULTS[command]:
        argv += ["--threads", "1"]
    return argv, file_cfg, draw(st.sampled_from([None, "csv", "json"]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150)
@given(call=_cli_calls())
# Integers that a float conversion or numpy cannot take: a step count and a time past the float
# range, and step sizes past int64.
@example(call=(["param", f"--witness-steps={10**400}"], _SMALL["param"], None))
@example(call=(["choi"], {"t_final": 10**400}, None))
@example(call=(["choi"], {"t_final": 0, "dt": 2**70}, None))
@example(call=(["unravel", "--threads", "1"], {"trajectories": 3, "t_final": 10**300, "dt": 10**300}, None))
def test_generated_configs_keep_the_exit_code_contract(call, fuzz_dir):
    argv, file_cfg, output = call
    config = fuzz_dir / "config.json"
    config.write_text(json.dumps(file_cfg), encoding="utf-8")
    argv = argv + ["--config", str(config)]
    if output:
        argv += ["--format", output, "--output", str(fuzz_dir / f"payload.{output}")]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a flag's text
            code = exc.code
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, err
    else:
        assert err == ""
        report = json.loads(out)
        assert (code == 1) == (report["verdict"] == "FAIL")


def _subparsers() -> dict:
    (action,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _csv_columns(path):
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(x) for x in row.split(",")] for row in rows])


@pytest.mark.parametrize("command", ["unravel", "convergence"])
def test_a_start_runs_alike_in_any_global_phase_and_from_its_bloch_vector(command, tmp_path, capsys):
    # The paper's gauge claim through the CLI: the SSE moves the ray of psi, so a config initial_state,
    # the same state times e^{0.7i}, and the --init-bloch of its Bloch vector (0, 0.96, -0.28) give the
    # same records.  The start stays away from the poles, where the non-CP step's antilinear psi_perp
    # fallback turns the other way from psi's phase, so that the phase moves a pole start's paths.
    state = np.array([0.6, 0.8j])
    starts = {}
    for name, vec in (("state", state), ("phased", np.exp(0.7j) * state)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"initial_state": [[z.real, z.imag] for z in vec.tolist()]}))
        starts[name] = ["--config", str(path)]
    starts["bloch"] = ["--init-bloch=0,0.96,-0.28"]
    columns = {}
    for name, flags in starts.items():
        out = tmp_path / f"{name}.csv"
        code, report = _run(capsys, [command, "--trajectories", "200", "--threads", "1", "--output", str(out), *flags])
        assert code == 0 and report["verdict"] == "PASS", name
        columns[name] = _csv_columns(out)
    header, reference = columns.pop("state")
    for name, (other_header, values) in columns.items():
        assert other_header == header and values.shape == reference.shape
        assert np.max(np.abs(values - reference)) <= 1e-12, name


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


def test_the_shared_parser_carries_no_value_between_calls(capsys):
    _, first = _run(capsys, ["choi", "--c3", "1"])
    _, second = _run(capsys, ["choi"])
    assert first["config"]["c3"] == 1.0 and second["config"]["c3"] == -1.0
    assert cli._build_parser() is cli._build_parser()


def test_importing_the_cli_builds_no_parser():
    built = _fresh_python(
        """
        import json
        from ssesim import cli

        print(json.dumps(cli._build_parser.cache_info().currsize))
        """
    )
    assert built == 0


def test_negative_exponent_values_need_the_equals_form(capsys):
    # argparse reads only a plain decimal as a negative number; any other token that starts with - is an option.
    for command, flag, dest, text, value in [
        ("choi", "--c3", "c3", "-1e0", -1.0),
        ("unravel", "--init-bloch", "initial_bloch", "-1,0,0", (-1.0, 0.0, 0.0)),
    ]:
        assert getattr(cli._build_parser().parse_args([command, f"{flag}={text}"]), dest) == value
        with pytest.raises(SystemExit) as info:
            cli._build_parser().parse_args([command, flag, text])
        assert info.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


def test_readme_flag_lists_match_the_parser():
    documented = {}
    for name, text in re.findall(r"^- (`\w+`|every subcommand): (.*)$", README_COMMAND_LINE, flags=re.M):
        documented[name.strip("`")] = set(re.findall(r"--[a-z][a-z0-9-]*", text))
    shared = documented.pop("every subcommand")
    assert set(documented) == set(cli._DEFAULTS)
    for command, sub in _subparsers().items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert documented[command] | shared == flags, command


def test_readme_library_use_block_runs(capsys):
    # Run in process as written, so that a stale API name in the README fails tier-1.
    code = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", README, flags=re.M | re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2


def test_unknown_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"no_such_key": 1}))
    assert cli.main(["unravel", "--config", str(path)]) == 2


@pytest.mark.parametrize("command", ["unravel", "convergence", "identity"])
def test_the_noncp_commands_take_no_rate_config_key(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c1": 2.0}))
    assert cli.main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'c1'\n"


def test_non_utf8_config_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'\xff\xfe{"seed": 1}')
    assert cli.main(["choi", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_noncp_unravel_refuses_operators_in_its_config(tmp_path, capsys):
    # The noncp model is the paper's fixed SSE: operators meant for the general model must not be dropped silently.
    cfg = {
        "hamiltonian": [[0, 0], [0, 0]],
        "lindblads": [[[0, 1], [1, 0]]],
        "noise_matrix": [[1]],
        "trajectories": 200,
        "t_final": 0.01,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["unravel", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error:")
    assert all(key in err for key in ("hamiltonian", "lindblads", "noise_matrix", "--model general"))


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
    assert lines[0] == "t,min_choi_eig,cp"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.25
    assert abs(float(fields[1]) - (-0.1580301)) <= 1e-5
    assert fields[2] == "0"


def test_choi_cp_case_passes(capsys):
    code, report = _run(
        capsys, ["choi", "--c3", "1", "--t-final", "0.5", "--grid-points", "8"]
    )
    assert code == 0
    assert report["summary"]["cp_everywhere"] is True
    assert [report["config"][k] for k in ("c1", "c2", "c3")] == [1.0, 1.0, 1.0]


def test_choi_zero_time_grid(capsys):
    # The identity map at t = 0 is the only one checked, so the signed-rate verdict tested nothing.
    code, report = _run(capsys, ["choi", "--t-final", "0"])
    assert code == 0
    assert report["verdict"] == "INCONCLUSIVE (no positive report time)"
    assert report["records"][0]["cp"] is True
    assert abs(report["records"][0]["min_choi_eig"]) <= 1e-12


def test_choi_zero_time_grid_of_cp_rates_is_inconclusive(capsys):
    code, report = _run(capsys, ["choi", "--t-final", "0", "--c3", "1"])
    assert code == 0
    assert report["verdict"] == "INCONCLUSIVE (no positive report time)"


def test_choi_identity_maps_at_signed_rates_are_inconclusive(capsys, monkeypatch):
    # The identity map is CP with minimum 0, within the CP tolerance of the boundary, so it cannot refute non-CP.
    monkeypatch.setattr(cli, "map_grid", lambda gen, times, dt: DynamicalMap(np.tile(np.eye(4), (len(times), 1, 1))))
    code, report = _run(capsys, ["choi"])
    assert (code, report["verdict"]) == (0, cli._VERDICT_CP_BOUNDARY)
    assert report["summary"]["cp_everywhere"] is True
    assert report["summary"]["negative_at_all_positive_times"] is False


# Minima of -1e-17 (read as 0), -1.0e-10 and -1.0e-9 lie within the 1e-9 CP tolerance, so each map reads CP;
# -4.0e-9 lies beyond it.
@pytest.mark.parametrize("t, passes", [("1e-17", False), ("1e-10", False), ("1e-9", False), ("4e-9", True)])
def test_choi_at_a_tiny_time_reads_one_classification(t, passes, capsys):
    code, report = _run(capsys, ["choi", "--t-final", t, "--dt", t, "--grid-points", "1"])
    assert (code, report["verdict"]) == (0, "PASS" if passes else cli._VERDICT_CP_BOUNDARY)
    (record,) = report["records"]
    assert report["summary"]["cp_everywhere"] is record["cp"] is (not passes)
    assert report["summary"]["negative_at_all_positive_times"] is passes


@settings(max_examples=60)
@given(
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.sampled_from(["1e-17", "1e-10", "4e-9", "0.1", "1"]),
)
def test_every_choi_cp_statement_reads_the_cp_column(rates, t):
    argv = ["choi", *(f"--c{k}={c!r}" for k, c in enumerate(rates, 1)), "--t-final", t, "--dt", t]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    cp = [r["cp"] for r in report["records"]]
    positive_cp = [r["cp"] for r in report["records"] if r["t"] > 0]
    assert report["summary"]["cp_everywhere"] is all(cp)
    assert report["summary"]["negative_at_all_positive_times"] is not any(positive_cp)
    assert code == (1 if report["verdict"] == "FAIL" else 0)


@pytest.mark.parametrize("grid_points", [1, 32, 64])
def test_choi_makes_one_eigensolver_call_per_run(grid_points, capsys, monkeypatch):
    shapes = []

    def counted(a, _real=master.hermitian_eigen):
        shapes.append(np.shape(a))
        return _real(a)

    monkeypatch.setattr(master, "hermitian_eigen", counted)
    assert cli.main(["choi", "--grid-points", str(grid_points)]) == 0
    capsys.readouterr()
    assert shapes == [(grid_points, 4, 4)]


def test_overflowing_map_exits_two_with_one_error_line(capsys):
    # lambda_1 = e^{4t} at rates (1, -1, -1): the map at t = 1000 overflows, and no numpy warning may escape.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["choi", "--c2", "-1", "--c3", "-1", "--t-final", "1000", "--grid-points", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: dynamical map 0 overflowed") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--c1", "1e308", "--c2", "1e308"], "error: generator overflowed"),
        (["--c1", "1e300", "--t-final", "0.001"], "error: dynamical map 0 overflowed"),
    ],
    ids=["generator", "step-propagator"],
)
def test_an_overflowing_generator_or_propagator_exits_two_with_one_error_line(argv, message, capsys):
    # Finite rates whose K overflows, and a finite L whose one-step propagator P
    # does: neither may leak a numpy warning, which the test config turns into an error.
    assert cli.main(["choi", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, file_cfg, message",
    [
        (["--init-bloch=1e200,0,0"], None, "error: Bloch vector of a pure state must be unit length, got ||n|| = inf"),
        ([], {"initial_state": [[1e308, 1e308], 0]}, "error: initial_state must be normalized"),
        (
            ["--model", "general"],
            {"hamiltonian": [[0, 0], [0, 0]], "lindblads": [[[0, 1], [0, 0]]], "noise_matrix": [[1e200], [0]]},
            "error: noise matrix is not an isometry (max |u^dag u - I| = inf)",
        ),
    ],
    ids=["init-bloch", "initial-state", "noise-matrix"],
)
def test_an_overflowing_norm_exits_two_with_one_error_line(flags, file_cfg, message, tmp_path, capsys):
    # Finite inputs whose norm or u^dag u overflows: no numpy warning may escape, which the test config turns into an error.
    argv = ["unravel", "--trajectories", "10", *flags]
    if file_cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        argv += ["--config", str(path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


@pytest.mark.parametrize("t_final", [100, 150, 170])
def test_a_large_finite_map_reaches_its_verdict(t_final, capsys):
    # lambda_1 = e^{4t} at rates (1, -1, -1) puts the map's entries near 1e173 to 1e295,
    # whose rounding alone exceeds any absolute Hermiticity cutoff.
    argv = ["choi", "--c2", "-1", "--c3", "-1", "--t-final", str(t_final), "--grid-points", "2"]
    code, report = _run(capsys, argv)
    assert code == 0 and report["verdict"] == "PASS"
    # The RK4 map has lambda_1 = R(4 dt)^n, R the RK4 stability function, and min Choi eigenvalue (1 - lambda_1) / 4.
    z = 4e-3
    lam = (1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) ** (1000 * t_final)
    assert abs(report["summary"]["min_choi_eigenvalue"] / ((1.0 - lam) / 4.0) - 1.0) <= 1e-10


def test_choi_reaches_ten_million_steps(capsys):
    # Binary powering takes 23 squarings here, where a product per step would take 10^7.
    code, report = _run(capsys, ["choi", "--t-final", "10000", "--grid-points", "4"])
    assert code == 0 and report["verdict"] == "PASS"
    assert abs(report["summary"]["min_choi_eigenvalue"] + 0.25) <= 1e-9


def test_identity_command_passes(capsys):
    code, report = _run(capsys, ["identity", "--trajectories", "2000", "--seed", "7"])
    assert code == 0
    assert report["verdict"] == "PASS"
    assert report["summary"]["max_identity_residual"] <= 1e-12
    kinds = {r["kind"] for r in report["records"]}
    assert kinds == {"haar", "pole"}


def test_identity_csv_output_keeps_its_bytes(tmp_path, monkeypatch, capsys):
    # sha256 of the stdout report and of the CSV payload, pinned so that any change to their bytes shows.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["identity", "--trajectories", "100", "--output", "x.csv"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == "90ddfda1f5347be427678503c8512253ecbf5a507771fc841ecf36e55e1da096"
    csv = (tmp_path / "x.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == "e1e9a80269c7209315149abec0608b6784918217a3d079c79d0fd882761814eb"


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
        raise AssertionError("stepped a range before checking the count")

    monkeypatch.setattr(sse, "_range_partials", no_stepping)
    assert cli.main([command, "--trajectories", str(10**12)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"<= {sse.MAX_TRAJECTORIES}" in err


@pytest.mark.parametrize("command", ["unravel", "convergence", "choi"])
def test_grid_points_above_the_ceiling_exit_two(command, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the grid points")

    monkeypatch.setattr(sse, "_range_partials", no_work)
    monkeypatch.setattr(cli, "map_grid", no_work)
    assert cli.main([command, "--grid-points", str(cli.MAX_RECORDS + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"<= {cli.MAX_RECORDS}" in err


def test_ensemble_above_the_byte_bound_exits_two(capsys, monkeypatch):
    # 10^6 trajectories in chunks of at most 4096, each with two partial sums at 10^5 report times: 3.1 GB.
    def no_stepping(task):
        raise AssertionError("stepped a range before checking the memory bound")

    monkeypatch.setattr(sse, "_range_partials", no_stepping)
    argv = ["unravel", "--t-final", "100", "--grid-points", "100000", "--trajectories", "1000000"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(sse.MAX_ENSEMBLE_BYTES) in err


def test_unravel_refuses_a_qutrit_model_before_stepping(tmp_path, capsys, monkeypatch):
    def no_stepping(task):
        raise AssertionError("stepped a range of a qutrit model")

    monkeypatch.setattr(sse, "_range_partials", no_stepping)
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


def test_param_n_lindblad_above_the_witness_operators_names_that_bound(capsys):
    # The bound on n_lindblad is checked before n_wiener >= n_lindblad, which the default n_wiener fails.
    assert cli.main(["param", "--n-lindblad", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_lindblad must be <= 4" in err


def test_param_makes_as_many_linalg_calls_for_3_cases_as_for_30(capsys, monkeypatch):
    # Every stage runs once over the stack of cases: a per-case loop would show as more calls.
    calls = {}
    for name in ("qr", "eigh", "svd"):

        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    counts = []
    for cases in ("3", "30"):
        calls.clear()
        assert cli.main(["param", "--cases", cases, "--witness-steps", "2"]) == 0
        counts.append(dict(calls))
    capsys.readouterr()
    assert counts[0] == counts[1] and set(counts[0]) == {"qr", "eigh", "svd"}
    # The round-trip column and the witness's s_deviation are bare products of checked isometries:
    # the one SVD is the construction's.
    assert counts[0]["svd"] == 1


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
    # Only t = 0 is compared, so nothing was tested.
    code, report = _run(
        capsys, ["convergence", "--t-final", "0", "--trajectories", "20"]
    )
    assert code == 0
    assert report["verdict"] == "INCONCLUSIVE (no positive report time)"
    assert report["summary"]["biases"] == [0.0, 0.0, 0.0]


def test_convergence_single_trajectory_is_inconclusive(capsys):
    # Every noise floor is infinite, so no bias can exceed one.
    argv = ["convergence", "--trajectories", "1", "--t-final", "0.016", "--grid-points", "4"]
    code, report = _run(capsys, argv)
    assert code == 0
    assert report["verdict"] == "INCONCLUSIVE (N too small for 3sigma test)"
    assert report["summary"]["noise_floors"] == [float("inf")] * 3


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--t-final", "0"], cli._VERDICT_NO_POSITIVE_TIME),
        (["--trajectories", "1"], cli._VERDICT_INCONCLUSIVE),
        # RK4 is unstable at dt = 10, but its map stays trace preserving to rounding.
        (["--dt", "10", "--t-final", "40", "--trajectories", "10"], cli._VERDICT_UNBOUNDED),
    ],
    ids=["no-positive-time", "one-trajectory", "unbounded"],
)
def test_unravel_and_convergence_share_their_inconclusive_rules(flags, reason, capsys):
    for command in ("unravel", "convergence"):
        code, report = _run(capsys, [command, *flags])
        assert (code, report["verdict"]) == (0, reason), command


def test_convergence_with_a_standard_error_above_half_is_inconclusive(capsys):
    # The biases stay below their noise floors, but two trajectories give a
    # standard error above 0.5, and a step size with one tests nothing.
    argv = ["convergence", "--trajectories", "2", "--t-final", "2", "--dt", "0.01", "--grid-points", "4", "--seed", "0"]
    code, report = _run(capsys, argv)
    assert (code, report["verdict"]) == (0, cli._VERDICT_INCONCLUSIVE)
    assert max(max(r["se1"], r["se2"], r["se3"]) for r in report["records"]) > 0.5


def test_readme_quotes_every_verdict_string():
    verdicts = {name: value for name, value in vars(cli).items() if name.startswith("_VERDICT_")}
    assert verdicts
    offenders = [name for name, value in verdicts.items() if not isinstance(value, str)]
    assert not offenders, f"cli names that are not verdict strings: {offenders}"
    for verdict in verdicts.values():
        assert verdict in README, verdict


# sha256 of non-CP CSV payloads.  Their analytic reference uses libm's exp, so that they read the
# same whether or not numpy dispatches its AVX-512 loops.
_NONCP_PAYLOADS = {
    "unravel": (["unravel"], "597a33d894f4d83539690a77959f9ae9a2c7aa43659c1d5303d5a6ce2e2f6c73"),
    "unravel-seed-7": (
        ["unravel", "--seed", "7", "--init-bloch", "0.6,0,0.8"],
        "8ad74635db879cfef7835ea7fa500d16db5f084023bb4d0d63339c9ba261ea82",
    ),
    "convergence": (
        ["convergence", "--t-final", "0.256"],
        "0a6ae071b776f846617125ce68942051abaa2543f1d55f9337b800b019b7bdd9",
    ),
}


@pytest.mark.parametrize("name", list(_NONCP_PAYLOADS))
def test_noncp_payloads_keep_their_bytes(name, tmp_path, capsys):
    argv, digest = _NONCP_PAYLOADS[name]
    path = tmp_path / "payload.csv"
    assert cli.main(argv + ["--threads", "1", "--output", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _run_without_avx512_loops(calls):
    # `cli.main` on each argv of `calls`, in one process whose numpy dispatches at most its AVX2
    # loops, as on a host without AVX-512; skipped where numpy dispatches no AVX-512 loop.
    umath = pytest.importorskip("numpy._core._multiarray_umath")  # numpy's dispatch tables, numpy >= 2
    targets = [t for t in umath.__cpu_dispatch__ if ("AVX512" in t or t == "X86_V4") and umath.__cpu_features__[t]]
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 loops on this host")
    script = f"""
        from numpy._core._multiarray_umath import __cpu_features__
        from ssesim import cli
        assert not any(__cpu_features__[t] for t in {targets!r})
        for argv in {calls!r}:
            assert cli.main(argv) == 0, argv
    """
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        env=_child_env(NPY_DISABLE_CPU_FEATURES=" ".join(targets)),
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def avx2_payloads(tmp_path_factory):
    # The pinned noncp `unravel` CSV, the JSON payload of each of `_SMALL_RUNS` and the general
    # `unravel` JSON payload, all written by one process at numpy's AVX2 level, each with the
    # digest pinned natively.
    tmp_path = tmp_path_factory.mktemp("avx2")
    config = tmp_path / "general-config.json"
    config.write_text(json.dumps(_GENERAL_CONFIG))
    general = ["unravel", "--config", str(config), "--trajectories", "200", "--t-final", "0.05", "--threads", "1"]
    runs = {
        "noncp.csv": (["unravel", "--threads", "1"], _NONCP_PAYLOADS["unravel"][1]),
        **{f"{argv[0]}.json": (argv + ["--format", "json"], _JSON_PAYLOADS[argv[0]]) for argv in _SMALL_RUNS},
        "general.json": (general + ["--format", "json"], _GENERAL_PAYLOAD),
    }
    _run_without_avx512_loops([argv + ["--output", str(tmp_path / name)] for name, (argv, _) in runs.items()])
    return {name: (tmp_path / name, digest) for name, (_, digest) in runs.items()}


def test_the_noncp_pin_holds_without_avx512_loops(avx2_payloads):
    # numpy's AVX-512 exp differs from libm's in the last bit, so a noncp reference that used it
    # would read other bytes on such hosts.
    path, digest = avx2_payloads["noncp.csv"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_the_json_payload_pins_hold_without_avx512_loops(avx2_payloads):
    json_runs = {name: run for name, run in avx2_payloads.items() if name.endswith(".json")}
    assert len(json_runs) == len(_SMALL_RUNS) + 1
    for name, (path, digest) in json_runs.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


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
    serial = _run(capsys, base + ["--threads", "1"])[1]["records"]
    assert serial_pool.sizes == []
    assert _run(capsys, base + ["--threads", "2"])[1]["records"] == serial
    # Two ranges per level, six in all, on one pool of the two workers asked for.
    assert serial_pool.sizes == [2] and len(serial_pool.tasks) == 6
    # Eight ranges per level, one per CPU of the stand-in pool, 24 in all: one pool is sized over every level.
    _run(capsys, base + ["--threads", "100"])
    assert serial_pool.sizes == [2, 8] and len(serial_pool.tasks) == 6 + 24
    assert {task[3] for task in serial_pool.tasks[6:]} == {1e-3, 2e-3, 4e-3}
    # By default one worker per CPU.
    assert _run(capsys, base)[1]["records"] == serial
    assert serial_pool.sizes == [2, 8, 8]


def test_unravel_defaults_to_a_worker_per_cpu_capped_by_its_ranges(capsys, serial_pool):
    code, report = _run(capsys, ["unravel", "--trajectories", "4196", "--t-final", "0.01"])
    assert code == 0
    assert report["threads"] == 8
    assert serial_pool.sizes == [8]
    # Five trajectories make five ranges, so five of the eight CPUs get one.
    code, report = _run(capsys, ["unravel", "--trajectories", "5", "--t-final", "0.01"])
    assert code == 0 and report["threads"] == 8
    assert serial_pool.sizes == [8, 5]


def _die(task):
    os._exit(3)


def test_a_dead_worker_exits_two_with_an_error_line(capsys, monkeypatch):
    # A real pool whose worker dies: two CPUs are reported, so a pool starts on any machine.
    monkeypatch.setattr(sse, "_range_partials", _die)
    monkeypatch.setattr(sse.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli.main(["unravel", "--trajectories", "4196", "--t-final", "0.002", "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "worker process died" in err


def _child_env(**env):
    # This process's environment, with the same package as this test on the path;
    # `env` sets further variables, and a None value unsets one.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    merged = {**os.environ, "PYTHONPATH": path, **env}
    return {key: value for key, value in merged.items() if value is not None}


def _fresh_python(script, **env):
    # Runs the script in a new interpreter that imports the same package as this test.
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True, env=_child_env(**env)
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_pool_or_scipy_module():
    loaded = _fresh_python(
        """
        import json, sys
        import ssesim.cli

        print(json.dumps([name for name in ("concurrent.futures", "multiprocessing", "scipy") if name in sys.modules]))
        """
    )
    assert loaded == []


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
def test_importing_ssesim_pins_blas_to_one_thread_unless_preset(preset, expected):
    seen = _fresh_python(
        """
        import json, os
        import ssesim

        print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
        """,
        OPENBLAS_NUM_THREADS=preset,
    )
    assert seen == expected


def test_scipy_is_not_imported_by_commands_that_draw_nothing():
    loaded = _fresh_python(
        """
        import contextlib, io, json, sys
        from ssesim import cli

        loaded = {"import": "scipy.special" in sys.modules}
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["choi", "--grid-points", "2"]) == 0
        loaded["choi"] = "scipy.special" in sys.modules
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(["unravel", "--no-such-flag"])
            except SystemExit as exc:
                assert exc.code == 2
        loaded["usage error"] = "scipy.special" in sys.modules
        print(json.dumps(loaded))
        """
    )
    assert loaded == {"import": False, "choi": False, "usage error": False}


def test_scipy_is_imported_before_the_pool_starts():
    # Forked workers then inherit it instead of each importing it again.
    seen = _fresh_python(
        """
        import contextlib, io, json, sys
        from ssesim import cli, sse

        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append("scipy.special" in sys.modules)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        sse._process_pool = SerialPool
        sse.os.sched_getaffinity = lambda pid: {0, 1}
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["unravel", "--trajectories", "4196", "--t-final", "0.002", "--threads", "2"]) == 0
        print(json.dumps(seen))
        """
    )
    assert seen == [True]


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


# Text that a writer keyed on separators, on the records anchor or on a `%`
# or `str.format` template could misread.
_TRICKY_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(['"', ",", "\0", "\n", " ", "{", "}", "%", ":", "\\", "é", "\u2603", "a"])),
    st.sampled_from(['"records": []', '\n  "records": []', "}\0{", "\0", "%s", "%%", "{0}", "{}"]),
)
_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True), _SPECIAL_FLOATS, _TRICKY_TEXT
)


def _table(cell):
    """Unique column names and rows of `cell` values, one per name; no rows without a name."""
    return st.lists(_TRICKY_TEXT, unique=True, max_size=4).flatmap(
        lambda names: st.tuples(st.just(names), st.lists(st.tuples(*[cell] * len(names)), max_size=5 if names else 0))
    )


def _columns(names, rows) -> dict:
    return {name: [row[j] for row in rows] for j, name in enumerate(names)}


@settings(max_examples=300)
@given(
    st.dictionaries(_TRICKY_TEXT, st.one_of(_SCALAR, st.dictionaries(_TRICKY_TEXT, _SCALAR, max_size=3)), max_size=4),
    _table(_SCALAR),
)
def test_report_writer_matches_json_dumps_on_flat_records(rest, table):
    names, rows = table
    rest.pop("records", None)
    expected = json.dumps({**rest, "records": [dict(zip(names, row)) for row in rows]}, indent=2, sort_keys=True)
    assert cli._dumps({**rest, "records": _columns(names, rows)}) == expected
    assert cli._dumps(rest) == json.dumps(rest, indent=2, sort_keys=True)


def _csv_reference(names, rows) -> str:
    """The row-wise CSV layout: a header line, then each row's values formatted in turn."""
    lines = [",".join(names)] + [",".join(map(cli._format_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(_table(st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True), _SPECIAL_FLOATS, _TRICKY_TEXT)))
def test_csv_writer_lays_out_columns_as_the_row_wise_reference(table):
    names, rows = table
    assert cli._csv_text(_columns(names, rows)) == _csv_reference(names, rows)


def _first_difference(text: str, expected: str):
    """None for equal texts, else the first line number at which they differ and both lines
    there; pytest's own diff of two long texts takes minutes."""
    for number, lines in enumerate(itertools.zip_longest(text.split("\n"), expected.split("\n"))):
        if lines[0] != lines[1]:
            return number, *lines
    return None


# Cells of the long columns that the writers encode one distinct float at a time: signed zeros,
# NaNs of three bit patterns, infinities, the least subnormal and multiples of 2^-52 (which
# rounding-level residuals repeat), and, in mixed columns, 1 and True beside 1.0, and strings.
_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(float).item()
_LONG_FLOATS = [0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, math.inf, -math.inf, 5e-324, -5e-324, 1.0]
_LONG_FLOATS += [k * 2.0**-52 for k in (1, 2, 3, -1, 6, 2**52 - 1)]
_LONG_MIXED = _LONG_FLOATS + [1, 0, True, False, "1.0", "NaN", "a,b", "\0"]


@st.composite
def _long_table(draw):
    """Column names and rows at or past the writers' distinct-value row count: each column draws
    its cells from a few values of one pool, all floats or mixed."""
    names = draw(st.lists(_TRICKY_TEXT, unique=True, min_size=1, max_size=3))
    count = draw(st.integers(cli._DISTINCT_ROWS, cli._DISTINCT_ROWS + 40))
    columns = []
    for _ in names:
        source = draw(st.sampled_from([_LONG_FLOATS, _LONG_MIXED]))
        pool = draw(st.lists(st.sampled_from(source), min_size=1, max_size=6))
        # The cells come from a seeded generator, so that a failing table shrinks in a few draws.
        columns.append(random.Random(draw(st.integers(0, 2**32 - 1))).choices(pool, k=count))
    return names, list(zip(*columns))


_SIGNED_ZEROS_AND_NANS = [0.0, -0.0, math.nan, _NAN_PAYLOAD, 2.0**-52]


@settings(max_examples=25)
@given(_long_table())
@example(
    (
        ["residual", "mixed"],
        list(
            zip(
                random.Random(0).choices(_SIGNED_ZEROS_AND_NANS, k=cli._DISTINCT_ROWS),
                random.Random(1).choices([1.0, 1, True], k=cli._DISTINCT_ROWS),
            )
        ),
    )
)
def test_writers_match_their_row_wise_references_on_long_columns(table):
    names, rows = table
    rest = {"command": "identity", "summary": {"states": len(rows)}}
    expected = json.dumps({**rest, "records": [dict(zip(names, row)) for row in rows]}, indent=2, sort_keys=True)
    assert _first_difference(cli._dumps({**rest, "records": _columns(names, rows)}), expected) is None
    assert _first_difference(cli._csv_text(_columns(names, rows)), _csv_reference(names, rows)) is None


def test_the_default_identity_report_is_the_row_wise_json_dumps():
    # 10 010 records, whose residual column is long enough to be encoded one distinct float at a time.
    args = cli._build_parser().parse_args(["identity"])
    verdict, summary, records = cli.cmd_identity(cli._resolve_config(args, cli._DEFAULTS["identity"]))
    assert verdict == "PASS" and len(records["residual"]) == 10010 >= cli._DISTINCT_ROWS
    rows = [dict(zip(records, row)) for row in zip(*records.values())]
    report = {"command": "identity", "verdict": verdict, "summary": summary}
    expected = json.dumps({**report, "records": rows}, indent=2, sort_keys=True)
    assert _first_difference(cli._dumps({**report, "records": records}), expected) is None


# One small run of each command.
_SMALL_RUNS = [
    ["unravel", "--trajectories", "200", "--t-final", "0.05"],
    ["choi", "--t-final", "0.1", "--grid-points", "4"],
    ["identity", "--trajectories", "100"],
    ["param", "--cases", "3", "--witness-steps", "2"],
    ["convergence", "--trajectories", "200", "--t-final", "0.016", "--grid-points", "4"],
]


@pytest.mark.parametrize("argv", _SMALL_RUNS, ids=lambda argv: argv[0])
def test_reports_and_json_payloads_are_indent_2_sorted_json(argv, tmp_path, capsys):
    path = tmp_path / "payload.json"
    for extra in ([], ["--format", "json", "--output", str(path)]):
        assert cli.main(argv + extra) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", _SMALL_RUNS, ids=lambda argv: argv[0])
def test_commands_return_their_records_as_equal_length_columns_of_python_scalars(argv):
    args = cli._build_parser().parse_args(argv)
    _, _, records = cli._COMMANDS[args.command](cli._resolve_config(args, cli._DEFAULTS[args.command]))
    assert type(records) is dict and records
    assert len({len(column) for column in records.values()}) == 1
    for column in records.values():
        assert type(column) is list and column
        assert set(map(type, column)) <= {int, float, str, bool}


def test_readme_lists_each_commands_record_columns():
    payloads = README[README.index("### Output payloads"):README.index("## Determinism")]
    documented = dict(re.findall(r"^- `(\w+)`: `([\w,]+)`", payloads, flags=re.M))
    documented["convergence"] = "dt," + documented["unravel"]  # "the same, prefixed by `dt`"
    for argv in _SMALL_RUNS:
        args = cli._build_parser().parse_args(argv)
        _, _, records = cli._COMMANDS[args.command](cli._resolve_config(args, cli._DEFAULTS[args.command]))
        assert ",".join(records) == documented[args.command], args.command


# sha256 of the records' JSON layout in the stdout report and in the JSON
# payloads of `_SMALL_RUNS`, pinned so that any change to their bytes shows.
_IDENTITY_STDOUT = "ce2e634fc1568d2835c7a2959ef2c62bcb1d66c76fb30c6bf2bb0f0d1e11892e"
_JSON_PAYLOADS = {
    "unravel": "7ba650c9e8b7fd77ec6e0427c4ed4ba71c1a5796000489e1b989cc42fc122ddc",
    "choi": "c9f6239b436f5ae4329b3de02ea2c63440010c8c83f55f98e5c5534e98890bc6",
    "identity": "dc499fde80e09f8d5bab846e72ab0b36c6c6d0800afdf00f328c163cf187df5f",
    "param": "4547001445ee169a3e2c700e015a0b93022c528b2c489221fac5104027e4e2c7",
    "convergence": "aa1e5e3d2a0e7ae069b41f66aa2c3e3203fd41b153dd4c638e8df442319968fd",
}


def test_identity_stdout_records_keep_their_bytes(capsys):
    assert cli.main(["identity", "--trajectories", "100"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _IDENTITY_STDOUT


@pytest.mark.parametrize("argv", _SMALL_RUNS, ids=lambda argv: argv[0])
def test_json_payloads_keep_their_bytes(argv, tmp_path, capsys):
    path = tmp_path / "payload.json"
    assert cli.main(argv + ["--format", "json", "--output", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _JSON_PAYLOADS[argv[0]]


@pytest.mark.parametrize("argv", [argv for argv in _SMALL_RUNS if argv[0] in ("choi", "param")], ids=lambda a: a[0])
def test_payloads_do_not_depend_on_blas_threads(argv, tmp_path):
    for blas_threads in (None, "2"):
        path = tmp_path / f"payload-{blas_threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ssesim", *argv, "--format", "json", "--output", str(path)],
            capture_output=True,
            env=_child_env(OPENBLAS_NUM_THREADS=blas_threads),
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _JSON_PAYLOADS[argv[0]]


# sha256 of the stdout report and of the JSON payload of one small general `unravel`: the witness
# Hamiltonian, the first three witness Lindblads and a fixed 4x3 isometry, the first three
# columns of the 4-point DFT matrix.
_GENERAL_CONFIG = {
    "model": "general",
    "hamiltonian": [[0.15, 0.2], [0.2, -0.15]],
    "lindblads": [[[0, 0], [0.6, 0]], [[0.5, 0], [0, -0.5]], [[0, 0.4], [0.4, 0]]],
    "noise_matrix": [[0.5, 0.5, 0.5], [0.5, [0, 0.5], -0.5], [0.5, -0.5, 0.5], [0.5, [0, -0.5], -0.5]],
}
_GENERAL_STDOUT = "09ebce5a3b1bd0ed019d69249a053d2b5605e2eb541828269aed025a54edf769"
_GENERAL_PAYLOAD = "cfd65b96e64e306418247bf45f4348f38021b830c7f81fb3368be45c7a981164"


def test_general_unravel_keeps_its_bytes(tmp_path, capsys):
    cfg, payload = tmp_path / "general.json", tmp_path / "payload.json"
    cfg.write_text(json.dumps(_GENERAL_CONFIG))
    argv = ["unravel", "--config", str(cfg), "--trajectories", "200", "--t-final", "0.05", "--threads", "1"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _GENERAL_STDOUT
    assert cli.main(argv + ["--format", "json", "--output", str(payload)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(payload.read_bytes()).hexdigest() == _GENERAL_PAYLOAD


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
    proc = subprocess.run(
        [sys.executable, "-m", "ssesim", "identity", "--trajectories", "100"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "PASS"


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
