import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import ssesim

# Names dropped from the library, with the module that defined each: unused by
# any command, acceptance claim or benchmark, or merged into another name.
_REMOVED = {
    # `bloch_block` and `positivity_verdict` take a stack by `apply_map`'s broadcasting rule.
    # `extract_map` was `map_grid` at one time, which `map_grid` takes.
    "master": ["lindblad_rhs", "ChoiMatrix", "_one_map", "extract_map"],
    "param": [
        "_require_isometry",
        "map_noise_increments",
        "validate_correlation",
        "CorrelationCheck",
        "spectral_norm",
        # One case is a stack with no case axis: `redundancy_witness` takes both.
        "redundancy_witnesses",
        # `noise_from_correlation` takes the real square root of the embedding whose
        # eigenvectors gave the Takagi vectors, so no cut of small values is left.
        "takagi",
        "_DEGENERACY_TOL",
    ],
    # `_renormalize` was merged into `_path`, the one stepping loop.  One step size is a
    # sequence with no step-size axis: `ensemble_density` takes both.  `step` was one row of
    # `simulate_with_noise`, and `perp_state` a checked `_perp`, which `identity_residual` forms.
    "sse": ["apply_phase_gauge", "_renormalize", "ensemble_densities", "step", "perp_state"],
    # `_check_step_size` checks each step size of `unravel` and `convergence`.
    "cli": ["_ensemble_check", "_bloch_columns", "_master_bloch_on_grid"],
}

# Dataclass fields and class attributes, and function parameters, dropped because
# no code read them or passed another value, or moved elsewhere, keyed by (module, name).
_REMOVED_MEMBERS = {
    ("master", "DynamicalMap"): ["time"],
    # A raw Choi minimum is d times `min_eigenvalue`.
    ("master", "CpVerdict"): ["witness", "min_eigenvalue_raw"],
    ("master", "pauli_channel_map"): ["time"],
    ("master", "cp_verdict"): ["tol"],
    ("master", "positivity_verdict"): ["tol"],
    ("param", "RedundancyWitness"): ["s_equal"],
    # The Bloch views of an estimate are `algebra.bloch_from_density` and `algebra.bloch_standard_error`.
    ("sse", "EnsembleEstimate"): ["trajectories", "bloch", "standard_error"],
    ("sse", "Trajectory"): ["times"],
    # The non-CP model is the paper's at the fixed rates (1, 1, -1).
    ("sse", "NonCpQubitModel"): ["rates", "perp_phase"],
    ("algebra", "require_normalized"): ["tol", "what"],
    ("master", "require_density"): ["what"],
    ("param", "_require_symmetric"): ["tol"],
    ("param", "random_correlation"): ["target_norm"],
    ("cli", "_pole_states"): ["count"],
    # The projector identity holds only at the paper's rates (1, 1, -1).
    ("sse", "identity_residual"): ["rates"],
}


def test_every_export_imports_and_no_removed_name_remains():
    tree = ast.parse(inspect.getsource(ssesim))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    exports = [(node.module, alias.name) for node in imports for alias in node.names]
    # The walk found every public name the package binds from its submodules, and no other way binds one.
    bound = {
        name
        for name, obj in vars(ssesim).items()
        if not name.startswith("_") and getattr(obj, "__module__", "").startswith("ssesim.")
    }
    assert sorted(name for _, name in exports) == sorted(bound)
    for module, name in exports:
        assert getattr(ssesim, name) is getattr(importlib.import_module(f"ssesim.{module}"), name)
    for module, names in _REMOVED.items():
        home = importlib.import_module(f"ssesim.{module}")
        for name in names:
            assert not hasattr(ssesim, name) and not hasattr(home, name), name


def test_no_removed_field_or_parameter_remains():
    for (module, name), gone in _REMOVED_MEMBERS.items():
        obj = getattr(importlib.import_module(f"ssesim.{module}"), name)
        if dataclasses.is_dataclass(obj):
            members = [f.name for f in dataclasses.fields(obj)] + dir(obj)
        else:
            members = list(inspect.signature(obj).parameters)
        assert not set(gone) & set(members), (name, gone)


def test_one_stepping_loop_raises_every_step_size_error():
    # Every norm check of a proposal is the one in `sse._path`, the library's only `raise StepSizeError`.
    raises = []
    for path in sorted(Path(ssesim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            name = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(name, ast.Name) and name.id == "StepSizeError":
                raises.append(path.name)
    assert raises == ["sse.py"]
    assert "raise StepSizeError(" in inspect.getsource(ssesim.sse._path)


def test_one_function_cuts_an_ensemble_into_batches():
    # `_BATCH_WIDTH` and `_cuts` are read in `sse.ensemble_density` alone: no worker cuts its batch again.
    readers = set()
    for path in sorted(Path(ssesim.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                loaded = node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else None
                name = node.attr if isinstance(node, ast.Attribute) else loaded
                if name in ("_BATCH_WIDTH", "_cuts"):
                    readers.add((path.name, getattr(top, "name", "<module>"), name))
    assert readers == {("sse.py", "ensemble_density", "_BATCH_WIDTH"), ("sse.py", "ensemble_density", "_cuts")}
