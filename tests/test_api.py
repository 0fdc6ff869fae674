import ast
import importlib
import inspect

import ssesim

# Names dropped from the library because no command, acceptance claim or
# benchmark used them, with the module that defined each.
_REMOVED = {
    "master": ["lindblad_rhs"],
    "param": [
        "_require_isometry",
        "map_noise_increments",
        "validate_correlation",
        "CorrelationCheck",
        "spectral_norm",
    ],
    "sse": ["apply_phase_gauge"],
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
