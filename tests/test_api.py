import ast
import dataclasses
import importlib
import inspect

import ssesim

# Names dropped from the library because no command, acceptance claim or
# benchmark used them, with the module that defined each.
_REMOVED = {
    "master": ["lindblad_rhs", "ChoiMatrix"],
    "param": [
        "_require_isometry",
        "map_noise_increments",
        "validate_correlation",
        "CorrelationCheck",
        "spectral_norm",
    ],
    "sse": ["apply_phase_gauge"],
}

# Dataclass fields and function parameters dropped because no code read them
# or passed another value, keyed by (module, name).
_REMOVED_MEMBERS = {
    ("master", "DynamicalMap"): ["time"],
    ("master", "CpVerdict"): ["witness"],
    ("master", "pauli_channel_map"): ["time"],
    ("master", "cp_verdict"): ["tol"],
    ("master", "positivity_verdict"): ["tol"],
    ("param", "RedundancyWitness"): ["s_equal"],
    ("sse", "EnsembleEstimate"): ["trajectories"],
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
    assert len(exports) > 40
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
            members = [f.name for f in dataclasses.fields(obj)]
        else:
            members = list(inspect.signature(obj).parameters)
        assert not set(gone) & set(members), (name, gone)
