"""The benchmark's tracer binds to ssesim by name: every function it wraps must
exist, and every argument its work counters read must be a parameter of the
function they measure.  A rename in `src/` would otherwise only show as a
traced span tagged "unknown" or a missing wrapper."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "ssebench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("ssebench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_function(name):
    layer, fname = name.split(".")
    return getattr(importlib.import_module(f"ssesim.{layer}"), fname, None)


def _arguments_read(counter) -> set:
    # The string keys a counter reads from its bound arguments: a["key"] and a.get("key").
    keys = set()
    for node in ast.walk(ast.parse(inspect.getsource(counter))):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            keys.add(node.slice.value)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            keys.add(node.args[0].value)
    return {k for k in keys if isinstance(k, str)}


def test_every_traced_name_exists(tracing):
    for layer, names in tracing.TRACED.items():
        assert layer in tracing.LAYERS
        for fname in names:
            assert callable(_traced_function(f"{layer}.{fname}")), f"ssesim.{layer}.{fname} is gone"


def test_work_counters_read_parameters_of_the_function_they_measure(tracing):
    for name, counter in tracing._WORK.items():
        layer, fname = name.split(".")
        assert fname in tracing.TRACED[layer], f"{name} has a work counter but is not traced"
        params = set(inspect.signature(_traced_function(name)).parameters)
        keys = _arguments_read(counter)
        assert keys, f"no argument read found in the counter of {name}"
        assert keys <= params, f"{name} lacks the parameters {sorted(keys - params)}"


def _ensemble_spans(tracing, argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from ssesim import cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) in (0, 1)
    finally:
        tracer.remove()
    return [s for s in tracer.spans if s.name == "sse.ensemble_density"]


def test_unravel_ensemble_span_counts_its_trajectory_steps(tracing):
    # One step size passed as a scalar is what `_work_ensemble` can count: 64 x 10 steps.
    (span,) = _ensemble_spans(tracing, ["unravel", "--trajectories", "64", "--t-final", "0.01", "--threads", "1"])
    assert span.work == 640
    assert span.tag == "NonCpQubitModel/threads=1"


def test_convergence_runs_every_step_size_in_one_ensemble_call(tracing):
    argv = ["convergence", "--trajectories", "64", "--t-final", "0.008", "--threads", "1"]
    assert len(_ensemble_spans(tracing, argv)) == 1
