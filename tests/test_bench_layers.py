"""The benchmark's tracer wraps public calls by name; every name must resolve.

perfbench/tracing.py is loaded from its file and only its ``LAYERS`` table is
read: ``install()`` would patch the package for the rest of the session.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.LAYERS


def test_every_traced_layer_resolves():
    package, layers = _layers()
    assert layers
    for mod_name, attr, cls_name, span, _counter in layers:
        home = importlib.import_module(f"{package}.{mod_name}")
        owner = getattr(home, cls_name) if cls_name is not None else home
        assert callable(getattr(owner, attr, None)), f"{span}: {mod_name}.{cls_name or ''}.{attr} is gone"
