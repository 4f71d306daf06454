"""Benchmark of foliated_flows: four workloads, each run in fresh child processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, untraced then traced

Run from anywhere inside a checkout; the program is imported from its
``src``.  Each run makes its configs from ``--seed`` under a temporary
directory of the checkout, passes the program only those configs, and
removes the directory at the end.  One run:

1. starts one untimed set-up child (fills the bytecode cache, as a second
   CLI run would find it), then SETUP_PROBES timed set-up-only children;
2. runs the workload in fresh children (``config.load_config`` then
   ``harness.run``) until another one would end past ``--seconds``; at least
   one runs;
3. with ``--trace 1``, runs one more child with every public layer call
   traced (see tracing.py) and reports the per-layer metrics of
   BENCHMARK.json from it, plus the tracing overhead;
4. checks every child's report against the exact oracles in checks.py, and
   that all children, traced or not, give the same payload sha256.

End-to-end metrics (untraced children, medians):
  wall_s       child launch until the artifacts are written
  setup_s      child launch until the config is loaded and validated
  work_per_s   work units / (wall_s - setup_s)
  peak_rss_mb  the child's ru_maxrss

Before the final JSON line it prints every metric by name and unit, then
one JSON line with the measurement context, the samples, the payload hash
and the reported (not gated) figures, such as the coalescence curve's
deviation from its first-passage oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import yaml

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"
DEFAULT_SEED = 20250811
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
# the traced child is assumed to take this much longer than an untraced one
TRACE_SLOWDOWN = 1.2
LIMITS = (
    "2 cores shared with other tenants",
    "no system-wide tracing: spans come from wrappers around public calls in the child",
    "kernels.dense_bytes is computed from array shapes, not measured",
)


class BenchError(RuntimeError):
    pass


def _base_config(name: str, **overrides):
    """configs/<name>.yaml with the seed, a relative output directory and overrides."""

    def make(seed: int) -> dict:
        path = ROOT / "configs" / f"{name}.yaml"
        if not path.is_file():
            raise BenchError(f"missing base config {path}")
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        for section, values in overrides.items():
            data[section] = dict(data[section], **values)
        return dict(data, seed=seed, output_dir="out")

    return make


def _kernel_dense(seed: int) -> dict:
    m = 32
    return {
        "experiment": "kernel-check",
        "seed": seed,
        "output_dir": "out",
        "kernel_check": {
            "m": m,
            "leaves": [[1.0, 0.0], [2.0, 0.0]],
            "times": [2.0 * math.pi * k / m for k in range(1, m + 1)],
        },
    }


def _replica_paths(cfg: dict) -> int:
    return len(cfg["averaging"]["eps_grid"]) * cfg["averaging"]["replicas"]


def _pair_rows(cfg: dict) -> int:
    kc = cfg["kernel_check"]
    return (kc["m"] * len(kc["leaves"])) ** 2 * len(kc["times"])


@dataclass(frozen=True)
class Workload:
    make_config: Callable[[int], dict]  # seed -> config
    threads: int
    work_units: Callable[[dict], int]  # config -> units of work in one child
    unit: str


# Replica counts are cut from the sample configs so that one child takes
# about 2 s and a run holds ten or so children: on shared cores one child's
# time jitters by 10-25 %, and only a median over many children is steady.
WORKLOADS = {
    "rates-cosine": Workload(
        _base_config("rates-cosine", averaging={"replicas": 300}), 1, _replica_paths, "replica-paths"
    ),
    "average-commuting": Workload(
        _base_config("average-commuting", averaging={"replicas": 50}), 2, _replica_paths, "replica-paths"
    ),
    "coalesce-circle": Workload(
        _base_config("coalesce-circle", coalesce={"replicas": 1500}),
        1,
        lambda cfg: cfg["coalesce"]["replicas"],
        "replicas",
    ),
    "kernel-dense": Workload(_kernel_dense, 1, _pair_rows, "pair-kernel-rows"),
}


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def _context() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3_bytes": _l3_bytes(),
        "limits": list(LIMITS),
    }


class Runner:
    """Launches children for one workload inside a private work directory."""

    def __init__(self, work: Path, workload: Workload, seed: int):
        self.work = work
        self.cfg = workload.make_config(seed)
        self.config_path = work / "config.yaml"
        with open(self.config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.cfg, fh, sort_keys=True)
        self.env = dict(
            os.environ,
            FOLIATED_FLOWS_THREADS=str(workload.threads),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def launch(self, setup_only: bool = False, traced: bool = False) -> dict:
        result_path = self.work / "result.json"
        spans_path = self.work / "spans.json"
        cmd = [sys.executable, str(CHILD), "--config", str(self.config_path), "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--spans", str(spans_path)]
        shutil.rmtree(self.work / "out", ignore_errors=True)
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.work, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace")[-3000:]
            raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
        res = json.loads(result_path.read_text())
        res["setup_s"] = res["t_setup"] - t0
        if setup_only:
            return res
        res["wall_s"] = res["t_done"] - t0
        with open(self.work / "out" / "report.json", "r", encoding="utf-8") as fh:
            report = json.load(fh)
        res["checks"], res["figures"] = checks.CHECKS[report["experiment"]](report["results"], report["config"])
        if traced:
            res["trace"] = tracing.summarize(spans_path)
        return res


def _layer_metric(name: str, traced: dict, overhead_s: float, figures: dict) -> float:
    summary = traced["trace"]
    if name == "trace.overhead_s":
        return overhead_s
    if name == "harness.artifact_bytes":
        return traced["artifact_bytes"]
    if name == "flows.coalesce_curve_dev_se":
        return figures.get("curve_dev_se_mean", 0.0)
    for suffix in ("self_s", "calls"):
        if name.endswith("." + suffix):
            return summary["layers"].get(name[: -len(suffix) - 1], {}).get(suffix, 0)
    return summary["counts"].get(name, 0)


def measure(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    """One benchmark run of one workload; returns metrics, checks and figures."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        runner = Runner(work, workload, seed)
        runner.launch(setup_only=True)
        probes = [runner.launch(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        children = []
        while True:
            children.append(runner.launch())
            last = children[-1]["wall_s"]
            reserve = TRACE_SLOWDOWN * last if trace else 0.0
            if time.perf_counter() - start + reserve + last > seconds:
                break
        traced = runner.launch(traced=True) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    units = workload.work_units(runner.cfg)
    walls = [c["wall_s"] for c in children]
    all_children = children + ([traced] if traced else [])
    hashes = [c["payload_sha256"] for c in all_children]
    outcomes = [(i, chk) for i, c in enumerate(all_children) for chk in c["checks"]]
    outcomes += [(i, ("payload-sha256", h == hashes[0], h)) for i, h in enumerate(hashes)]
    failed = [{"child": i, "check": n, "detail": d} for i, (n, ok, d) in outcomes if not ok]

    if trace:
        overhead = traced["wall_s"] - statistics.median(walls)
        metrics = {
            m["name"]: {"value": _layer_metric(m["name"], traced, overhead, traced["figures"]), "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(probes + [c["setup_s"] for c in children]),
            "work_per_s": statistics.median(units / (c["wall_s"] - c["setup_s"]) for c in children),
            "peak_rss_mb": statistics.median(c["maxrss_kb"] / 1024.0 for c in children),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    return {
        "metrics": metrics,
        "attempted": len(outcomes),
        "failed": failed,
        "info": {
            "workload": name,
            "seed": seed,
            "threads": workload.threads,
            "work_units": units,
            "work_unit": workload.unit,
            "context": _context(),
            "samples": {
                "wall_s": walls,
                "setup_s_probes": probes,
                "setup_s_children": [c["setup_s"] for c in children],
                "traced_wall_s": traced["wall_s"] if traced else None,
            },
            "payload_sha256": hashes[0],
            "figures": children[0]["figures"],
            "failed_checks": failed,
            "seconds_used": time.perf_counter() - start,
        },
    }


def _print_metrics(name: str, metrics: dict) -> None:
    for metric, m in metrics.items():
        print(f"{name:18s} {metric:44s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if not (ROOT / "src" / "foliated_flows").is_dir():
        raise BenchError(f"no foliated_flows package under {ROOT / 'src'}")

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in plan:
        run = measure(name, args.seed, seconds, trace, bench)
        _print_metrics(name, run["metrics"])
        print(json.dumps(run["info"], sort_keys=True))
        final["attempted"] += run["attempted"]
        final["failed"] += len(run["failed"])
        prefix = f"{name}." if args.workload == "all" else ""
        final["metrics"].update({prefix + k: v for k, v in run["metrics"].items()})
    final["correct"] = final["failed"] == 0
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
