"""The benchmark's tracer wraps public calls by name; every name must resolve.

perfbench/tracing.py is loaded from its file and only its ``LAYERS`` and
``summarize`` are used here: ``install()`` would patch the package for the
rest of the session, so traced runs go through perfbench/child.py in a
fresh interpreter.  perfbench/checks.py is loaded the same way, and its
oracle checks run on each traced child's report.json.
"""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
CHECKS = ROOT / "perfbench" / "checks.py"
CHILD = ROOT / "perfbench" / "child.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("perfbench_tracing", TRACING)


def _layers():
    module = _tracing()
    return module.PACKAGE, module.LAYERS


def test_every_traced_layer_resolves():
    package, layers = _layers()
    assert layers
    for mod_name, attr, cls_name, span, _counter in layers:
        home = importlib.import_module(f"{package}.{mod_name}")
        owner = getattr(home, cls_name) if cls_name is not None else home
        assert callable(getattr(owner, attr, None)), f"{span}: {mod_name}.{cls_name or ''}.{attr} is gone"


def _sample(name: str, section: str, replicas: int) -> dict:
    data = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
    data[section] = dict(data[section], replicas=replicas)
    return data


# one tiny config of each kind the benchmark runs
_TRACED_RUNS = {
    "kernel-check": lambda: {
        "experiment": "kernel-check",
        "kernel_check": {"m": 4, "leaves": [[1.0, 0.0], [2.0, 0.0]], "times": [math.pi / 2.0, math.pi]},
    },
    "coalesce": lambda: _sample("coalesce-circle", "coalesce", 20),
    "rates": lambda: _sample("rates-cosine", "averaging", 20),
    "average": lambda: _sample("average-commuting", "averaging", 20),
}


@pytest.mark.parametrize("kind", sorted(_TRACED_RUNS))
def test_traced_child_runs_every_bench_kind(tmp_path, kind):
    # the tracer's counters read attributes of the wrapped calls' outputs
    # (e.g. .matrix of every kernel built), so a changed return type fails here
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(dict(_TRACED_RUNS[kind](), output_dir="out")))
    spans, result = tmp_path / "spans.json", tmp_path / "result.json"
    cmd = [sys.executable, str(CHILD), "--config", str(config), "--result", str(result), "--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary = _tracing().summarize(spans)
    assert summary["layers"]["harness.run"]["calls"] == 1
    assert json.loads(result.read_text())["payload_sha256"]
    # the bench's oracle checks read these fields of report.json
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    checks, _figures = _load("perfbench_checks", CHECKS).CHECKS[kind](report["results"], report["config"])
    assert checks
    for check in checks:
        name, ok, detail = check
        assert isinstance(name, str) and isinstance(ok, bool) and isinstance(detail, str)
