"""Command-line front end.

Five subcommands: `unravel` (ensemble vs. master-equation comparison),
`choi` (complete-positivity curve of the extracted dynamical map),
`identity` (projector-identity residual sweep), `param` (noise-matrix
parametrization property suites), and `convergence` (step-size study).

Every run prints a JSON report to stdout and optionally writes a data
payload (CSV records or the full JSON report) to `--output`.  Payloads
carry no timestamps and are byte-identical for a fixed config and seed,
independent of `--threads`.  Exit codes: 0 pass, 1 verdict failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .algebra import bloch_from_density, bloch_from_state, pauli, random_state, resolve_steps
from .algebra import state_from_bloch
from .errors import DimensionError, InfeasibleError, StepSizeError, ValidationError
from .master import (
    MasterGenerator,
    analytic_pauli_solution,
    apply_map,
    choi_matrix,
    cp_verdict,
    map_grid,
    pauli_generator,
)
from .param import (
    correlation_from_noise,
    noise_from_correlation,
    random_correlation,
    random_isometry,
    random_orthogonal,
    redundancy_witnesses,
)
from .sse import (
    GeneralDiffusiveModel,
    NonCpQubitModel,
    ensemble_densities,
    ensemble_density,
    identity_residual,
    report_indices,
)

_FLOAT_FMT = "{:.17g}"
_SIGNED_PATTERN = (1.0, 1.0, -1.0)

_VERDICT_INCONCLUSIVE = "INCONCLUSIVE (N too small for 3sigma test)"

# Ceiling of `identity --trajectories` and `param --cases`.
MAX_RECORDS = 10**6
# Ceiling of `param`'s cases * n_wiener^2: the witness holds every case's
# n_wiener x n_wiener orthogonal matrix at once.  2^24 doubles are 128 MiB,
# and admit MAX_RECORDS cases at the default n_wiener of 4.
MAX_ORTHOGONAL_ENTRIES = 1 << 24


def _parse_triple(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return tuple(parts)


class _Key(NamedTuple):
    """One config key: its flag (None for a key only a config file can set),
    its type (float, int, str, `_parse_triple`, a tuple of the allowed values,
    or None for structured entries that their reader checks), the flag's help
    and the least allowed value."""

    flag: str | None
    kind: object
    help: str
    least: int | None = None


_KEYS = {
    "c1": _Key("--c1", float, "rate of the sigma_x channel"),
    "c2": _Key("--c2", float, "rate of the sigma_y channel"),
    "c3": _Key("--c3", float, "rate of the sigma_z channel"),
    "t_final": _Key("--t-final", float, "final time", 0),
    "dt": _Key("--dt", float, "time step, positive"),
    "trajectories": _Key("--trajectories", int, "number of trajectories or random states", 1),
    "seed": _Key("--seed", int, "seed of every random draw"),
    "output": _Key("--output", str, "write the data payload to this path"),
    "format": _Key("--format", ("csv", "json"), "data payload format"),
    "threads": _Key("--threads", int, "worker processes; affects wall time only", 1),
    "grid_points": _Key("--grid-points", int, "number of report times", 1),
    "initial_bloch": _Key("--init-bloch", _parse_triple, "initial Bloch vector as 'x,y,z'"),
    "initial_state": _Key(None, None, "initial state vector; overrides initial_bloch"),
    "model": _Key("--model", ("noncp", "general"), "general takes its operators from the config file"),
    "hamiltonian": _Key(None, None, "general model Hamiltonian"),
    "lindblads": _Key(None, None, "general model Lindblad operators"),
    "noise_matrix": _Key(None, None, "general model isometric noise matrix"),
    "n_lindblad": _Key("--n-lindblad", int, "number of Lindblad operators", 1),
    "n_wiener": _Key("--n-wiener", int, "number of Wiener processes, at least n_lindblad"),
    "cases": _Key("--cases", int, "number of random cases", 1),
    "witness_steps": _Key("--witness-steps", int, "steps of the pathwise redundancy witness", 1),
}

# The keys each subcommand reads, with their defaults; every subcommand also
# takes the seed (the payload header carries it) and the payload settings.
_RATES = {"c1": 1.0, "c2": 1.0, "c3": -1.0}
_PAYLOAD = {"seed": 42, "format": "csv", "output": None}
_ENSEMBLE = {
    **_RATES,
    "dt": 1e-3,
    "trajectories": 20000,
    "grid_points": 32,
    "threads": 1,
    "initial_bloch": (0.0, 0.0, 1.0),
    "initial_state": None,
}

_DEFAULTS = {
    "unravel": {
        **_ENSEMBLE,
        "t_final": 0.25,
        "model": "noncp",
        "hamiltonian": None,
        "lindblads": None,
        "noise_matrix": None,
        **_PAYLOAD,
    },
    "choi": {**_RATES, "t_final": 1.0, "dt": 1e-3, "grid_points": 32, **_PAYLOAD},
    "identity": {**_RATES, "trajectories": 10000, **_PAYLOAD},
    "param": {"dt": 1e-3, "n_lindblad": 2, "n_wiener": 4, "cases": 100, "witness_steps": 100, **_PAYLOAD},
    # 0.256 is a whole multiple of the coarsest level, 4 dt.
    "convergence": {**_ENSEMBLE, "t_final": 0.256, **_PAYLOAD},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssesim",
        description="Diffusive stochastic Schrodinger equation simulator and verification suite.",
    )
    parser.add_argument("--version", action="version", version=f"ssesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        p.add_argument("--config", help="JSON config file; explicit flags override its values")
        for key, spec in _KEYS.items():
            if key not in defaults or spec.flag is None:
                continue
            kind = {"choices": spec.kind} if isinstance(spec.kind, tuple) else {"type": spec.kind}
            p.add_argument(spec.flag, dest=key, help=spec.help, **kind)
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValidationError("config file must contain a JSON object")
        for key, value in file_cfg.items():
            if key not in defaults:
                raise ValidationError(f"unknown config key {key!r}")
            cfg[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value

    for key, value in cfg.items():
        kind, least = _KEYS[key].kind, _KEYS[key].least
        if kind is float and not _is_finite_number(value):
            raise ValidationError(f"{key} must be a finite number, got {value!r}")
        if kind is int and not _is_int(value):
            raise ValidationError(f"{key} must be an integer, got {value!r}")
        if kind is str and value is not None and not isinstance(value, str):
            raise ValidationError(f"{key} must be a string, got {value!r}")
        if isinstance(kind, tuple) and value not in kind:
            raise ValidationError(f"{key} must be one of {', '.join(map(repr, kind))}, got {value!r}")
        if kind is _parse_triple:
            if not isinstance(value, (list, tuple)) or len(value) != 3 or not all(map(_is_finite_number, value)):
                raise ValidationError(f"{key} must be three finite numbers, got {value!r}")
            cfg[key] = tuple(float(x) for x in value)
        if least is not None and value < least:
            raise ValidationError(f"{key} must be >= {least}")
    if "dt" in cfg and cfg["dt"] <= 0:
        raise ValidationError("dt must be positive")
    if "n_wiener" in cfg and cfg["n_wiener"] < cfg["n_lindblad"]:
        raise ValidationError("n_wiener must be >= n_lindblad")
    return cfg


def _parse_complex(entry, name: str) -> complex:
    parts = entry if isinstance(entry, list) else [entry, 0.0]
    if len(parts) != 2 or not all(map(_is_finite_number, parts)):
        raise ValidationError(f"{name} entries must be finite numbers or [re, im] pairs, got {entry!r}")
    return complex(parts[0], parts[1])


def _parse_complex_matrix(rows, name: str) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows):
        raise ValidationError(f"{name} must be a list of equal-length rows, got {rows!r}")
    return np.array([[_parse_complex(e, name) for e in row] for row in rows], dtype=complex)


def _build_model(cfg: dict):
    if cfg["model"] == "noncp":
        return NonCpQubitModel(rates=(cfg["c1"], cfg["c2"], cfg["c3"]))
    if cfg.get("hamiltonian") is None or not cfg.get("lindblads") or cfg.get("noise_matrix") is None:
        raise ValidationError(
            "the general model requires hamiltonian, lindblads and noise_matrix in the config file"
        )
    if not isinstance(cfg["lindblads"], list):
        raise ValidationError(f"lindblads must be a list of matrices, got {cfg['lindblads']!r}")
    hamiltonian = _parse_complex_matrix(cfg["hamiltonian"], "hamiltonian")
    lindblads = tuple(
        _parse_complex_matrix(m, f"lindblads[{i}]") for i, m in enumerate(cfg["lindblads"])
    )
    noise = _parse_complex_matrix(cfg["noise_matrix"], "noise_matrix")
    return GeneralDiffusiveModel(hamiltonian, lindblads, noise)


def _initial_state(cfg: dict) -> np.ndarray:
    entries = cfg.get("initial_state")
    if entries is not None:
        if not isinstance(entries, list):
            raise ValidationError(f"initial_state must be a list of complex entries, got {entries!r}")
        vec = np.array([_parse_complex(e, "initial_state") for e in entries], dtype=complex)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-6:
            raise ValidationError("initial_state must be normalized")
        return vec / norm
    return state_from_bloch(cfg["initial_bloch"])


def _master_bloch_on_grid(gen: MasterGenerator, psi0: np.ndarray, times, dt: float) -> np.ndarray:
    rho = np.outer(psi0, psi0.conj())
    return bloch_from_density([apply_map(m, rho) for m in map_grid(gen, times, dt)])


_BLOCH_COLUMNS = ["t", "n1", "n2", "n3", "se1", "se2", "se3", "analytic_n1", "analytic_n2", "analytic_n3"]


def _bloch_rows(times, mean, se, reference, *prefix) -> list:
    """Rows of `_BLOCH_COLUMNS`, each led by the values of `prefix`."""
    return [
        [*prefix, float(t), *map(float, m), *map(float, s), *map(float, r)]
        for t, m, s, r in zip(times, mean, se, reference)
    ]


def _safe_ratio(dev: np.ndarray, se: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dev == 0, 0.0, dev / se)
    return ratio


def cmd_unravel(cfg: dict):
    """Ensemble average vs. master-equation reference."""
    model = _build_model(cfg)
    if model.dim != 2:
        raise DimensionError(f"unravel reports Bloch columns and needs a qubit model, got d = {model.dim}")
    psi0 = _initial_state(cfg)
    dt = cfg["dt"]
    est = ensemble_density(
        model,
        psi0,
        cfg["t_final"],
        dt,
        cfg["trajectories"],
        cfg["seed"],
        grid_points=_record_count(cfg, "grid_points"),
        threads=cfg["threads"],
    )
    mean = est.bloch()
    se = est.standard_error
    if isinstance(model, NonCpQubitModel):
        reference = analytic_pauli_solution(bloch_from_state(psi0), model.rates, est.times)
        rk4 = _master_bloch_on_grid(pauli_generator(model.rates), psi0, est.times, dt)
    else:
        gen = MasterGenerator(model.hamiltonian, tuple((1.0, op) for op in model.lindblads))
        reference = _master_bloch_on_grid(gen, psi0, est.times, dt)
        rk4 = reference

    dev = np.abs(mean - reference)
    bound = 3.0 * se + 2.0 * dt
    max_se = float(np.max(se))
    if max_se > 0.5:
        verdict, code = _VERDICT_INCONCLUSIVE, 0
    elif np.all(dev <= bound):
        verdict, code = "PASS", 0
    else:
        verdict, code = "FAIL", 1

    summary = {
        "max_abs_deviation": float(np.max(dev)),
        "max_deviation_se_units": float(np.max(_safe_ratio(dev, se))),
        "max_standard_error": max_se,
        "deviation_bound": float(np.max(bound)),
        "master_vs_reference": float(np.max(np.abs(rk4 - reference))),
        "final_bloch_mean": [float(x) for x in mean[-1]],
    }
    return code, verdict, summary, _BLOCH_COLUMNS, _bloch_rows(est.times, mean, se, reference)


def cmd_choi(cfg: dict):
    """Complete-positivity curve of the extracted map."""
    rates = (cfg["c1"], cfg["c2"], cfg["c3"])
    gen = pauli_generator(rates)
    dt = cfg["dt"]
    times = report_indices(resolve_steps(cfg["t_final"], dt), _record_count(cfg, "grid_points")) * dt
    verdicts = [cp_verdict(choi_matrix(m)) for m in map_grid(gen, times, dt)]

    columns = ["t", "min_choi_eig", "min_choi_eig_raw", "cp"]
    rows = [
        [float(t), float(v.min_eigenvalue), float(v.min_eigenvalue_raw), bool(v.cp)]
        for t, v in zip(times, verdicts)
    ]
    positive_times = [v for t, v in zip(times, verdicts) if t > 0]
    cp_everywhere = all(v.cp for v in verdicts)
    negative_at_positive_times = all(v.min_eigenvalue < 0 for v in positive_times)
    if min(rates) >= 0:
        ok = cp_everywhere
    else:
        ok = negative_at_positive_times
    summary = {
        "min_choi_eigenvalue": float(min(v.min_eigenvalue for v in verdicts)),
        "cp_everywhere": bool(cp_everywhere),
        "negative_at_all_positive_times": bool(negative_at_positive_times),
    }
    return (0 if ok else 1), ("PASS" if ok else "FAIL"), summary, columns, rows


def _pole_states(count: int = 10) -> np.ndarray:
    phases = np.exp(2j * np.pi * np.arange(count // 2) / (count // 2))
    north = np.stack([phases, np.zeros_like(phases)], axis=-1)
    south = np.stack([np.zeros_like(phases), phases], axis=-1)
    return np.concatenate([north, south])


def _record_count(cfg: dict, key: str) -> int:
    # One report record per Haar state, param case or grid point is held in memory.
    if cfg[key] > MAX_RECORDS:
        raise ValidationError(f"{key} must be <= {MAX_RECORDS}, one report record each")
    return cfg[key]


def cmd_identity(cfg: dict):
    """Projector-identity residual sweep."""
    rates = (cfg["c1"], cfg["c2"], cfg["c3"])
    haar = random_state(cfg["seed"], 2, np.arange(_record_count(cfg, "trajectories")))
    poles = _pole_states()
    states = np.concatenate([haar, poles])
    kinds = ["haar"] * len(haar) + ["pole"] * len(poles)
    residuals = identity_residual(states, rates)
    max_residual = float(np.max(residuals))

    columns = ["index", "kind", "residual"]
    rows = [[i, kinds[i], float(residuals[i])] for i in range(len(states))]
    summary = {"max_identity_residual": max_residual, "states": len(states)}
    if rates == _SIGNED_PATTERN:
        ok = max_residual <= 1e-12
        return (0 if ok else 1), ("PASS" if ok else "FAIL"), summary, columns, rows
    # The identity is specific to the signed-rate pattern; other rates are
    # reported without pass/fail semantics.
    return 0, "INFO", summary, columns, rows


_WITNESS_HAMILTONIAN = np.array([[0.15, 0.2], [0.2, -0.15]], dtype=complex)
_WITNESS_LINDBLADS = (
    0.6 * np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    0.5 * pauli(3),
    0.4 * pauli(1),
    0.3 * pauli(2),
)


def cmd_param(cfg: dict):
    """Noise-matrix parametrization property suites."""
    n = cfg["n_lindblad"]
    n_w = cfg["n_wiener"]
    if n > len(_WITNESS_LINDBLADS):
        raise ValidationError(f"n_lindblad must be <= {len(_WITNESS_LINDBLADS)}")
    cases = _record_count(cfg, "cases")
    if cases * n_w * n_w > MAX_ORTHOGONAL_ENTRIES:
        raise ValidationError(f"cases * n_wiener^2 must be <= {MAX_ORTHOGONAL_ENTRIES}, one orthogonal matrix per case")
    seed = cfg["seed"]
    dt = cfg["dt"]
    rows = []
    for case in range(cases):
        s = random_correlation(seed, n, case)
        u = noise_from_correlation(s)
        rt_err = np.max(np.abs(correlation_from_noise(u) - s))
        iso_err = np.max(np.abs(u.conj().T @ u - np.eye(n)))
        rows.append([case, float(rt_err), float(iso_err)])
    witnesses = redundancy_witnesses(
        [random_isometry(seed, n_w, n, case) for case in range(cases)],
        [random_orthogonal(seed, n_w, case) for case in range(cases)],
        _WITNESS_HAMILTONIAN,
        _WITNESS_LINDBLADS[:n],
        random_state(seed, 2, np.arange(cases)),
        cfg["witness_steps"] * dt,
        dt,
        seed,
        np.arange(cases),
    )
    for row, witness in zip(rows, witnesses):
        row += [witness.s_deviation, witness.max_pathwise_deviation]
    columns = ["case", "round_trip_error", "isometry_error", "s_deviation", "pathwise_deviation"]
    maxima = np.max([row[1:] for row in rows], axis=0)

    try:
        noise_from_correlation(2.0 * np.eye(n))
        rejected = False
    except InfeasibleError:
        rejected = True

    ok = (
        maxima[0] <= 1e-10
        and maxima[1] <= 1e-10
        and maxima[2] <= 1e-12
        and maxima[3] <= 1e-12
        and rejected
    )
    summary = {
        "max_round_trip_error": float(maxima[0]),
        "max_isometry_error": float(maxima[1]),
        "max_s_deviation": float(maxima[2]),
        "max_pathwise_deviation": float(maxima[3]),
        "infeasible_rejected": bool(rejected),
    }
    return (0 if ok else 1), ("PASS" if ok else "FAIL"), summary, columns, rows


def cmd_convergence(cfg: dict):
    """Ensemble bias vs. step size study."""
    model = NonCpQubitModel(rates=(cfg["c1"], cfg["c2"], cfg["c3"]))
    psi0 = _initial_state(cfg)
    n0 = bloch_from_state(psi0)
    base = cfg["dt"]
    levels = [4.0 * base, 2.0 * base, base]
    estimates = ensemble_densities(
        model,
        psi0,
        cfg["t_final"],
        levels,
        cfg["trajectories"],
        cfg["seed"],
        grid_points=_record_count(cfg, "grid_points"),
        threads=cfg["threads"],
    )
    rows = []
    biases, floors = [], []
    for level, est in zip(levels, estimates):
        mean = est.bloch()
        reference = analytic_pauli_solution(n0, model.rates, est.times)
        dev = np.abs(mean - reference)
        biases.append(float(np.max(dev)))
        finite_se = est.standard_error[np.isfinite(est.standard_error)]
        floors.append(float(3.0 * np.max(finite_se)) if finite_se.size else float("inf"))
        rows += _bloch_rows(est.times, mean, est.standard_error, reference, float(level))

    ok = all(
        biases[i] <= biases[i - 1] * (1.0 + 1e-12) or biases[i] <= floors[i]
        for i in range(1, len(levels))
    )
    exponent = None
    if all(b > f for b, f in zip(biases, floors)) and all(b > 0 for b in biases):
        ratios = [np.log2(biases[i - 1] / biases[i]) for i in range(1, len(levels))]
        exponent = float(np.mean(ratios))
    summary = {
        "dt_levels": [float(x) for x in levels],
        "biases": biases,
        "noise_floors": floors,
        "weak_order_exponent": exponent,
    }
    return (0 if ok else 1), ("PASS" if ok else "FAIL"), summary, ["dt", *_BLOCH_COLUMNS], rows


_COMMANDS = {
    "unravel": cmd_unravel,
    "choi": cmd_choi,
    "identity": cmd_identity,
    "param": cmd_param,
    "convergence": cmd_convergence,
}

# Execution-only keys: they never influence computed numbers and stay out of
# the byte-stable data payload.
_EXECUTION_KEYS = ("threads", "output")


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return _FLOAT_FMT.format(float(value))


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _jsonable_config(cfg: dict) -> dict:
    out = {}
    for key, value in cfg.items():
        if key in _EXECUTION_KEYS:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args, _DEFAULTS[args.command])
        code, verdict, summary, columns, rows = _COMMANDS[args.command](cfg)
        payload = {
            "command": args.command,
            "version": __version__,
            "seed": cfg["seed"],
            "config": _jsonable_config(cfg),
            "verdict": verdict,
            "summary": summary,
        }
        records = [dict(zip(columns, row)) for row in rows]
        if cfg["output"]:
            if cfg["format"] == "csv":
                text = _csv_text(columns, rows)
            else:
                text = json.dumps(
                    {**payload, "records": records},
                    indent=2,
                    sort_keys=True,
                ) + "\n"
            with open(cfg["output"], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        report = dict(payload)
        if cfg["output"]:
            report["output"] = cfg["output"]
        else:
            report["records"] = records
        # choi, identity and param start no workers.
        report["threads"] = cfg.get("threads", 1)
        print(json.dumps(report, indent=2, sort_keys=True))
        return code
    except (ValidationError, DimensionError, InfeasibleError, StepSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
