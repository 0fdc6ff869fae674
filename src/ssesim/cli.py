"""Command-line front end.

Five subcommands: `unravel` (ensemble vs. master-equation comparison),
`choi` (complete-positivity curve of the extracted dynamical map),
`identity` (projector-identity residual sweep), `param` (noise-matrix
parametrization property suites), and `convergence` (step-size study).

Every run prints a JSON report to stdout and optionally writes a data
payload (CSV records or the full JSON report) to `--output`.  Payloads
carry no timestamps and are byte-identical for a fixed config and seed,
independent of `--threads`.  Each command returns its verdict, and `main`
sets the exit code by one rule: 1 for the verdict FAIL and only for it, 0
for every other verdict (PASS, INCONCLUSIVE), and 2 for a usage, config or
numerical error.  Only `choi` takes channel rates: the non-CP model and the
projector identity exist only at the paper's signed rates (1, 1, -1).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

import numpy as np

from . import __version__, master
from .algebra import bloch_from_density, bloch_from_state, bloch_standard_error, max_abs, pauli, random_state
from .algebra import MAX_STEPS, report_indices, resolve_steps, state_from_bloch
from .errors import DimensionError, InfeasibleError, StepSizeError, ValidationError
from .master import (
    analytic_pauli_solution,
    apply_map,
    choi_matrix,
    cp_verdict,
    map_grid,
    pauli_generator,
)
from .param import (
    noise_from_correlation,
    random_correlation,
    random_isometry,
    random_orthogonal,
    redundancy_witness,
)
from .sse import (
    GeneralDiffusiveModel,
    NonCpQubitModel,
    available_cpus,
    ensemble_density,
    identity_residual,
    _SIGNED_RATES,
)

_FLOAT_FMT = "{:.17g}"

_VERDICT_INCONCLUSIVE = "INCONCLUSIVE (N too small for 3sigma test)"
_VERDICT_NO_POSITIVE_TIME = "INCONCLUSIVE (no positive report time)"
# A Bloch deviation is at most 2, so a bound of 2 or more cannot be exceeded.
_VERDICT_UNBOUNDED = "INCONCLUSIVE (every deviation bound >= 2)"
_VERDICT_CP_BOUNDARY = "INCONCLUSIVE (every CP map is within rounding of the CP boundary)"

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
    "threads": _Key("--threads", int, "worker processes, one per usable CPU by default; affects wall time only", 1),
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
_PAYLOAD = {"seed": 42, "format": "csv", "output": None}
_ENSEMBLE = {
    "dt": 1e-3,
    "trajectories": 20000,
    "grid_points": 32,
    "threads": None,  # resolved on each run by `_resolve_config` to `available_cpus()`
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
    "choi": {**dict(zip(("c1", "c2", "c3"), _SIGNED_RATES)), "t_final": 1.0, "dt": 1e-3, "grid_points": 32, **_PAYLOAD},
    "identity": {"trajectories": 10000, **_PAYLOAD},
    "param": {"dt": 1e-3, "n_lindblad": 2, "n_wiener": 4, "cases": 100, "witness_steps": 100, **_PAYLOAD},
    # 0.256 is a whole multiple of the coarsest level, 4 dt.
    "convergence": {**_ENSEMBLE, "t_final": 0.256, **_PAYLOAD},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first `main` call, not at import, and shared by later calls:
    # `parse_args` leaves the parser unchanged.
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
    # An integer beyond the float range is refused too: converting it would overflow.
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if "threads" in cfg:
        cfg["threads"] = available_cpus()
    path = getattr(args, "config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:
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
        if kind is float:
            if not _is_finite_number(value):
                raise ValidationError(f"{key} must be a finite number, got {value!r}")
            cfg[key] = float(value)  # a JSON integer runs, and is reported, as the float it names
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
        given = ", ".join(key for key in ("hamiltonian", "lindblads", "noise_matrix") if cfg[key] is not None)
        if given:
            raise ValidationError(f"the noncp model takes no {given}; set --model general to use them")
        return NonCpQubitModel()
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
        with np.errstate(over="ignore"):  # a huge finite entry gives norm inf, refused below with no numpy warning
            norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-6:
            raise ValidationError("initial_state must be normalized")
        return vec / norm
    return state_from_bloch(cfg["initial_bloch"])


_BLOCH_COLUMNS = ["t", "n1", "n2", "n3", "se1", "se2", "se3", "analytic_n1", "analytic_n2", "analytic_n3"]


def _ensemble(cfg: dict, model, psi0: np.ndarray, dt):
    """The ensemble of `unravel` at its one step size dt, or of `convergence` at its sequence of them."""
    n_traj, grid_points = cfg["trajectories"], _record_count(cfg, "grid_points")
    return ensemble_density(model, psi0, cfg["t_final"], dt, n_traj, cfg["seed"], grid_points, cfg["threads"])


def _check_step_size(model, psi0: np.ndarray, est, dt: float):
    """One step size's ensemble check: the Bloch reference on the estimate's grid (the paper's
    closed form for the noncp model, the RK4 map of `model.generator` for the general model),
    the deviation |mean - reference|, its bound 3 se + 2 dt, the Bloch standard errors se, the
    INCONCLUSIVE verdict when no deviation could exceed its bound (else None), and the
    `_BLOCH_COLUMNS` records."""
    times = est.times
    mean, se = bloch_from_density(est.mean_density), bloch_standard_error(est.density_standard_error)
    if isinstance(model, NonCpQubitModel):
        reference = analytic_pauli_solution(bloch_from_state(psi0), _SIGNED_RATES, times)
    else:
        reference = bloch_from_density(apply_map(map_grid(model.generator, times, dt), np.outer(psi0, psi0.conj())))
    dev = np.abs(mean - reference)
    bound = 3.0 * se + 2.0 * dt
    positive = times > 0
    if not positive.any():
        reason = _VERDICT_NO_POSITIVE_TIME
    elif np.max(se) > 0.5:
        reason = _VERDICT_INCONCLUSIVE
    elif np.all(bound[positive] >= 2.0):
        reason = _VERDICT_UNBOUNDED
    else:
        reason = None
    records = dict(zip(_BLOCH_COLUMNS, [times.tolist(), *mean.T.tolist(), *se.T.tolist(), *reference.T.tolist()]))
    return reference, dev, bound, se, reason, records


def cmd_unravel(cfg: dict):
    """Ensemble average vs. master-equation reference."""
    model = _build_model(cfg)
    if model.dim != 2:
        raise DimensionError(f"unravel reports Bloch columns and needs a qubit model, got d = {model.dim}")
    psi0 = _initial_state(cfg)
    dt = cfg["dt"]
    est = _ensemble(cfg, model, psi0, dt)
    reference, dev, bound, se, reason, records = _check_step_size(model, psi0, est, dt)
    rk4 = reference  # the general model's reference is its RK4 map
    if isinstance(model, NonCpQubitModel):
        try:
            rk4 = bloch_from_density(apply_map(map_grid(model.generator, est.times, dt), np.outer(psi0, psi0.conj())))
        except ValidationError:
            # The verdict reads the analytic reference; a refused RK4 map (one
            # that overflowed, say) only leaves its cross-check unreported.
            rk4 = None

    verdict = reason or ("PASS" if np.all(dev <= bound) else "FAIL")
    with np.errstate(divide="ignore", invalid="ignore"):
        se_units = np.where(dev == 0, 0.0, dev / se)
    summary = {
        "max_abs_deviation": float(np.max(dev)),
        "max_deviation_se_units": float(np.max(se_units)),
        "max_standard_error": float(np.max(se)),
        "deviation_bound": float(np.max(bound)),
        "master_vs_reference": None if rk4 is None else float(np.max(np.abs(rk4 - reference))),
        "final_bloch_mean": [records[name][-1] for name in ("n1", "n2", "n3")],
    }
    return verdict, summary, records


def cmd_choi(cfg: dict):
    """Complete-positivity curve of the extracted map."""
    rates = (cfg["c1"], cfg["c2"], cfg["c3"])
    gen = pauli_generator(rates)
    dt = cfg["dt"]
    times = report_indices(resolve_steps(cfg["t_final"], dt), _record_count(cfg, "grid_points")) * dt
    verdicts = cp_verdict(choi_matrix(map_grid(gen, times, dt)))

    minima, cp = verdicts.min_eigenvalue, verdicts.cp
    records = {"t": times.tolist(), "min_choi_eig": minima.tolist(), "cp": cp.tolist()}
    positive = times > 0
    cp_everywhere, noncp_at_positive_times = bool(np.all(cp)), not np.any(cp[positive])
    summary = {
        "min_choi_eigenvalue": float(np.min(minima)),
        "cp_everywhere": cp_everywhere,
        "negative_at_all_positive_times": noncp_at_positive_times,
    }
    if not np.any(positive):
        # Only the identity map at t = 0 was checked, and it is CP for any rates.
        return _VERDICT_NO_POSITIVE_TIME, summary, records
    ok = cp_everywhere if min(rates) >= 0 else noncp_at_positive_times
    # Every statement reads `cp`; at signed rates a map called CP refutes the claim only if CP beyond the tolerance.
    decisive = min(rates) >= 0 or np.any(minima[positive] > master._VERDICT_TOL)
    return ("PASS" if ok else "FAIL" if decisive else _VERDICT_CP_BOUNDARY), summary, records


def _pole_states() -> np.ndarray:
    phases = np.exp(2j * np.pi * np.arange(5) / 5)
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
    haar = random_state(cfg["seed"], 2, np.arange(_record_count(cfg, "trajectories")))
    poles = _pole_states()
    states = np.concatenate([haar, poles])
    kinds = ["haar"] * len(haar) + ["pole"] * len(poles)
    residuals = identity_residual(states)
    max_residual = float(np.max(residuals))

    records = {"kind": kinds, "residual": residuals.tolist()}
    summary = {"max_identity_residual": max_residual, "states": len(states)}
    return ("PASS" if max_residual <= 1e-12 else "FAIL"), summary, records


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
    if n_w < n:
        raise ValidationError("n_wiener must be >= n_lindblad")
    if cfg["witness_steps"] > MAX_STEPS:
        raise ValidationError(f"witness_steps must be <= {MAX_STEPS}")
    cases = _record_count(cfg, "cases")
    if cases * n_w * n_w > MAX_ORTHOGONAL_ENTRIES:
        raise ValidationError(f"cases * n_wiener^2 must be <= {MAX_ORTHOGONAL_ENTRIES}, one orthogonal matrix per case")
    seed = cfg["seed"]
    dt = cfg["dt"]
    case_ids = np.arange(cases)
    s = random_correlation(seed, n, case_ids)
    u = noise_from_correlation(s)
    witness = redundancy_witness(
        random_isometry(seed, n_w, n, case_ids),
        random_orthogonal(seed, n_w, case_ids),
        _WITNESS_HAMILTONIAN,
        _WITNESS_LINDBLADS[:n],
        random_state(seed, 2, case_ids),
        cfg["witness_steps"] * dt,
        dt,
        seed,
        case_ids,
    )
    # `noise_from_correlation` refuses a round-trip or isometry error above
    # 1e-10, so the verdict reads only the witness columns and the 2I refusal.
    errors = {
        "round_trip_error": max_abs(np.conj(u.swapaxes(-1, -2) @ u) - s, axis=(-2, -1)),
        "isometry_error": max_abs(u.conj().swapaxes(-1, -2) @ u - np.eye(n), axis=(-2, -1)),
        "s_deviation": witness.s_deviation,
        "pathwise_deviation": witness.max_pathwise_deviation,
    }
    summary = {f"max_{name}": float(np.max(e)) for name, e in errors.items()}
    try:
        noise_from_correlation(2.0 * np.eye(n))
        rejected = False
    except InfeasibleError:
        rejected = True
    summary["infeasible_rejected"] = rejected
    ok = rejected and summary["max_s_deviation"] <= 1e-12 and summary["max_pathwise_deviation"] <= 1e-12
    records = {name: e.tolist() for name, e in errors.items()}
    return ("PASS" if ok else "FAIL"), summary, records


def cmd_convergence(cfg: dict):
    """Ensemble bias vs. step size study."""
    model = NonCpQubitModel()
    psi0 = _initial_state(cfg)
    base = cfg["dt"]
    levels = [4.0 * base, 2.0 * base, base]
    biases, floors, reasons, records = [], [], [], {"dt": []}
    for level, est in zip(levels, _ensemble(cfg, model, psi0, levels)):
        _, dev, _, se, reason, columns = _check_step_size(model, psi0, est, level)
        biases.append(float(np.max(dev)))
        floors.append(float(3.0 * np.max(se)))
        reasons.append(reason)
        # One record per step size and report time, the step sizes in turn.
        records["dt"] += [level] * len(est.times)
        for name, column in columns.items():
            records.setdefault(name, []).extend(column)

    ok = all(
        biases[i] <= biases[i - 1] * (1.0 + 1e-12) or biases[i] <= floors[i]
        for i in range(1, len(levels))
    )
    # The first step size whose bound tests nothing makes the study INCONCLUSIVE.
    verdict = next(filter(None, reasons), "PASS" if ok else "FAIL")
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
    return verdict, summary, records


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
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return _FLOAT_FMT.format(value)


def _weave(leads, cells) -> str:
    """Equal-length columns of text laid out row by row, with leads[j] before each row's cell j."""
    width = 2 * len(cells)
    parts = [None] * (width * len(cells[0]) if cells else 0)
    for j, (lead, column) in enumerate(zip(leads, cells)):
        parts[2 * j :: width] = [lead] * len(column)
        parts[2 * j + 1 :: width] = column
    return "".join(parts)


# Float columns this long encode each distinct value once: that pays from about 128 rows of repeating
# rounding-level values, costs up to a fifth more on distinct ones, and only `identity` reports as many.
_DISTINCT_ROWS = 1024


def _encode_column(column: list, encode) -> list:
    """`encode(column)`, with each distinct float of a long float column, by bit pattern, encoded once."""
    if len(column) < _DISTINCT_ROWS or set(map(type, column)) != {float}:
        return encode(column)
    bits, inverse = np.unique(np.array(column).view(np.int64), return_inverse=True)
    return np.array(encode(bits.view(float).tolist()), dtype=object)[inverse].tolist()


def _csv_text(records: dict) -> str:
    """A header line of the column names, then one line per record; each column is formatted once."""
    cells = [_encode_column(column, lambda values: list(map(_format_value, values))) for column in records.values()]
    return ",".join(records) + _weave(["\n"] + [","] * (len(cells) - 1), cells) + "\n"


_RECORDS_ANCHOR = '\n  "records": '
_RECORD_BREAK = "\n    },\n    {\n      "


def _dumps(report: dict) -> str:
    """Exactly `json.dumps(report, indent=2, sort_keys=True)`, but with the
    `records` of a report, a mapping of column name to equal-length column of
    scalars, written as the list of one record dict per row.

    Any `indent` selects json's pure-Python encoder.  Each column is instead
    encoded in one C-encoder call with NUL as item separator, which can only be
    a separator since strings escape NUL as \\u0000.  The cells are woven into
    records after the sorted, encoded keys, and spliced in for the encoded
    empty list.
    """
    records = report.get("records")
    if records is None:
        return json.dumps(report, indent=2, sort_keys=True)
    text = json.dumps({**report, "records": []}, indent=2, sort_keys=True)
    names = sorted(records)
    if not names or not records[names[0]]:
        return text
    # A raw newline and two spaces open only a top-level key, so the anchor is unique.
    head, tail = text.split(_RECORDS_ANCHOR + "[]")
    encode = lambda values: json.dumps(values, separators=("\0", ": "))[1:-1].split("\0")
    cells = [_encode_column(records[name], encode) for name in names]
    keys = [json.dumps(name) + ": " for name in names]
    leads = [_RECORD_BREAK + keys[0]] + [",\n      " + key for key in keys[1:]]
    body = _weave(leads, cells)[len(_RECORD_BREAK) :]
    return f"{head}{_RECORDS_ANCHOR}[\n    {{\n      {body}\n    }}\n  ]{tail}"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args, _DEFAULTS[args.command])
        verdict, summary, records = _COMMANDS[args.command](cfg)
        payload = {
            "command": args.command,
            "version": __version__,
            "seed": cfg["seed"],
            "config": {key: value for key, value in cfg.items() if key not in _EXECUTION_KEYS},
            "verdict": verdict,
            "summary": summary,
        }
        if cfg["output"]:
            if cfg["format"] == "csv":
                text = _csv_text(records)
            else:
                text = _dumps({**payload, "records": records}) + "\n"
            with open(cfg["output"], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        report = dict(payload)
        if cfg["output"]:
            report["output"] = cfg["output"]
        else:
            report["records"] = records
        # choi, identity and param start no workers.
        report["threads"] = cfg.get("threads", 1)
        print(_dumps(report))
        return 1 if verdict == "FAIL" else 0
    except (ValidationError, DimensionError, InfeasibleError, StepSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
