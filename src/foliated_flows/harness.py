"""Experiment orchestration: dispatch, replica fan-out in index order, artifacts.

``run`` executes one declarative config and returns a RunReport whose numeric
payload is reproducible to the bit for a fixed seed (replicas run serially
and are reduced in index order).  Wall-clock time and the run's diagnostic
counters live in their own fields, outside the payload, so reports stay
comparable.  The A1..A4 decomposition rows of an averaging run stay one
(rows, 8) float64 array: the payload carries the sha256 of its little-endian
bytes and its shape, and ``emit_plotdata`` saves the rows to
``decomposition.npy``.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .averaging import (
    averaging_errors,
    default_rate_bound,
    fit_rate_exponent,
    measured_lipschitz,
)
from .config import START_COORDS, ExperimentConfig
from .drivers import StreamKey
from .flows import coalescence_times, n_point_motion
from .geometry import CylPoint, TorusPoint, make_model
from .kernels import (
    FLOW_CHECKS,
    build_cylinder_kernel,
    defect_record,
    defects_json,
    flow_defects,
    kernel_dump_name,
    LeafGrid,
    semigroup_gaps,
    write_kernel_json,
)
from .parallel import map_indexed

REPORT_SCHEMA = "foliated-flows/run-report-v2"


def _fmt(x: float) -> str:
    """Round-trip-safe CSV number format (17 significant digits)."""
    return format(float(x), ".17g")


@dataclass
class RunReport:
    experiment: str
    config: dict
    results: dict
    replicas: int
    wall_clock_seconds: float
    schema: str = REPORT_SCHEMA
    # what the run did, e.g. the streams and normals a coalesce run drew
    diagnostics: dict = field(default_factory=dict)
    # compute_s (= wall_clock_seconds) and artifacts_s, every artifact written after it but report.json
    timings: dict = field(default_factory=dict)

    def payload(self) -> dict:
        """Everything except timings and diagnostics; this is the determinism contract.

        An averaging run's decomposition rows enter as {sha256, shape} of their
        little-endian float64 bytes.
        """
        results = self.results
        if "decompositions" in results:
            rows = np.ascontiguousarray(results["decompositions"], dtype="<f8")
            digest = {"sha256": hashlib.sha256(rows).hexdigest(), "shape": list(rows.shape)}
            results = {**results, "decompositions": digest}
        return {
            "schema": self.schema,
            "experiment": self.experiment,
            "config": self.config,
            "replicas": self.replicas,
            "results": results,
        }

    def to_json(self) -> str:
        body = self.payload()
        body["wall_clock_seconds"] = self.wall_clock_seconds
        body["timings"] = self.timings
        body["diagnostics"] = self.diagnostics
        # compact, so json's C encoder writes it (an indent needs its Python one)
        return json.dumps(body, sort_keys=True)


def _simulate_starts(cfg: ExperimentConfig):
    if cfg.model.name == "torus-winding":
        raw = cfg.simulate.starts or ({"a": 0.2, "b": 0.7},)
        return [TorusPoint.from_coords(s.get("a", 0.0), s.get("b", 0.0)) for s in raw]
    return [CylPoint.from_angle(**{**START_COORDS, **s}) for s in cfg.simulate.starts or ({},)]


def _write_csv(path: Path, header: list[str], rows: list) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    if not rows:
        warnings.warn(f"empty report series: {path.name} has headers only")
    return path


def _run_simulate(cfg: ExperimentConfig):
    model = make_model(**cfg.model.to_dict())
    starts = _simulate_starts(cfg)
    sim = cfg.simulate
    base = StreamKey(cfg.seed)
    kept = []  # replica 0's series, which trajectory.csv shows; only its writer reads states

    def one(i: int) -> float:
        series = n_point_motion(model, starts, base.replica(i), sim.horizon, sim.dt, cfg.perturbation, sim.eps)
        if i == 0:
            kept.append(series)
        return float(np.max(series.leaf_defects))

    defects = map_indexed(one, sim.replicas)
    first = kept[0]

    def write_trajectory(out: Path) -> None:
        times, class_ids = first.times.tolist(), first.class_ids.tolist()
        csv_rows = []
        for pid in range(len(starts)):
            states, d = first.states[:, pid].tolist(), first.leaf_defects[:, pid].tolist()
            for k, tk in enumerate(times):
                csv_rows.append((tk, pid, *states[k], class_ids[k][pid], d[k]))
        header = ["time", "point_id", *first.columns, "class_id", "leaf_defect"]
        _write_csv(out / "trajectory.csv", header, csv_rows)

    return {
        "max_leaf_defect": float(np.max(defects)),
        "per_replica_defects": defects,
        "horizon": sim.horizon,
        "dt": sim.dt,
        "eps": sim.eps,
    }, {}, write_trajectory


def _run_kernel_check(cfg: ExperimentConfig):
    kc = cfg.kernel_check
    grid = LeafGrid(m=kc.m, leaves=kc.leaves)
    kernels = [build_cylinder_kernel(grid, t) for t in kc.times]
    records = [defect_record(check, t, d) for t, row in zip(kc.times, flow_defects(kernels).tolist())
               for check, d in zip(FLOW_CHECKS, row)]
    totals, gaps = semigroup_gaps(kernels)
    records += [defect_record("semigroup-composition", s, g) for s, g in zip(totals, gaps.tolist())]

    def write_kernels(out: Path) -> None:
        for t, k1 in zip(kc.times, kernels):
            write_kernel_json(k1, out / kernel_dump_name(t))
        with open(out / "kernel_defects.json", "w", encoding="utf-8") as fh:
            fh.write(defects_json(records))

    n = grid.n_states  # law-gap rows: n^2 compatibility and n diagonal per time, n per pair
    diagnostics = {"kernels_built": 2 * len(kernels) + len(set(totals)), "semigroup_pairs": len(totals),
                   "gap_rows": len(kernels) * (n * n + n) + len(totals) * n}
    return {
        "m": kc.m,
        "leaves": [list(l) for l in kc.leaves],
        "records": records,
        "max_defect": max(r["defect"] for r in records),
    }, diagnostics, write_kernels


def _run_averaging(cfg: ExperimentConfig, fit: bool):
    av = cfg.averaging
    base = StreamKey(cfg.seed)
    start = CylPoint.from_angle(**av.start)
    rb = default_rate_bound(cfg.perturbation, cfg.region, c1=cfg.bounds.c1, c2=cfg.bounds.c2)

    per_eps = []
    blocks = []
    estimates = averaging_errors(
        cfg.perturbation, av.eps_grid, av.t, av.p, av.replicas, base, measure=av.measure,
        ode_step=av.ode_step, region=cfg.region, f_choice=av.f_choice, start=start,
        rate_bound=rb, keep_decompositions=True,
    )
    diagnostics = {  # one count per eps, in eps_grid order
        "jumps": [res.n_jumps for res in estimates],
        "partition_intervals": [res.n_intervals for res in estimates],
        "exits": [res.n_exited for res in estimates],
        "violations": [len(res.violations) for res in estimates],
    }
    for res in estimates:
        per_eps.append(
            {
                "eps": res.eps,
                "error": res.estimate,
                "std_error": res.std_error,
                "bound_G": res.bound_g,
                "n_exited": res.n_exited,
                "max_triangle_slack": res.max_triangle_slack,
                "max_a4_ratio": res.max_a4_ratio,
                "v_final": [float(x) for x in res.v_final],
            }
        )
        blocks.append(np.hstack((np.full((len(res.decomp_rows), 1), res.eps), res.decomp_rows)))

    results: dict = {
        "t": av.t,
        "p": av.p,
        "f_choice": av.f_choice,
        "eps_grid": list(av.eps_grid),
        "errors": [row["error"] for row in per_eps],
        "std_errors": [row["std_error"] for row in per_eps],
        "G_values": [row["bound_G"] for row in per_eps],
        "per_eps": per_eps,
        "pathwise_bound_violations": sum(diagnostics["violations"]),
        "decompositions": np.vstack(blocks),
    }
    if fit:
        pairs = [(row["eps"], row["error"]) for row in per_eps]
        try:
            fit_res = fit_rate_exponent(pairs)
            results["slope"] = fit_res.slope
            results["intercept"] = fit_res.intercept
            results["r_squared"] = fit_res.r_squared
            results["flags"] = [fit_res.flag] + (["zero-errors"] if fit_res.n_zero else [])
        except ValueError as exc:
            results["slope"] = None
            results["flags"] = [f"fit-failed: {exc}"]
        ode = estimates[0].averaged
        leaves = [tuple(v) for v in ode.values[:: max(1, len(ode.values) // 16)]]
        results["averaged_field_lipschitz_measured"] = measured_lipschitz(cfg.perturbation, leaves)
        results["gronwall_C"] = rb.gronwall_c
    return results, diagnostics, None


def _run_coalesce(cfg: ExperimentConfig):
    co = cfg.coalesce
    starts = [CylPoint.from_angle(**s) for s in co.starts]
    batch = coalescence_times(
        starts, StreamKey(cfg.seed), co.horizon, co.dt, sigma=cfg.model.sigma,
        replicas=np.arange(co.replicas),
    )
    same_leaf = np.array([starts[i].leaf == starts[j].leaf for i, j in batch.pairs], dtype=bool)
    curve_times = np.linspace(0.0, co.horizon, co.curve_points)
    if same_leaf.any():
        # a hit counts from the first curve time at or after it; count / n is
        # the mean of the 0/1 values hit <= t, to the bit
        first = np.searchsorted(curve_times, batch.hit_times[:, same_leaf], side="left")
        counts = np.cumsum(np.bincount(first.ravel(), minlength=curve_times.size + 1))[:-1]
        fraction = (counts / first.size).tolist()
    else:
        fraction = [0.0 for _ in curve_times]
    n_hit = np.isfinite(batch.hit_times).sum(axis=0)
    per_pair = {
        f"{i}-{j}": {"same_leaf": bool(same), "coalesced": int(c), "fraction": int(c) / co.replicas}
        for (i, j), same, c in zip(batch.pairs, same_leaf, n_hit)
    }
    cross_total = int(n_hit[~same_leaf].sum())
    results = {
        "horizon": co.horizon,
        "dt": co.dt,
        "sigma": cfg.model.sigma,
        "pairs": per_pair,
        "cross_leaf_coalescences": cross_total,
        "curve_times": [float(t) for t in curve_times],
        "fraction_coalesced": fraction,
    }
    diagnostics = {
        "streams_opened": batch.streams_opened,
        "normals_drawn": batch.normals_drawn,
        "merges": batch.merges,
    }
    return results, diagnostics, None


def run(cfg: ExperimentConfig, threads: int | None = None, write_artifacts: bool = True) -> RunReport:
    """Execute one experiment config; returns the in-memory report.

    Artifacts (report.json, CSV series, kernel dumps) are written under the
    config's output directory unless write_artifacts is False.  Replicas run
    serially in index order; ``threads`` has no effect.
    """
    out: Path | None = None
    if write_artifacts:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    kind = cfg.experiment
    # each runner returns results, diagnostics and a writer of the artifacts
    # only its computation holds (kernel dumps, the first trajectory), or None
    if kind == "simulate":
        results, diagnostics, write_own = _run_simulate(cfg)
    elif kind == "kernel-check":
        results, diagnostics, write_own = _run_kernel_check(cfg)
    elif kind in ("average", "rates"):
        results, diagnostics, write_own = _run_averaging(cfg, fit=kind == "rates")
    elif kind == "coalesce":
        results, diagnostics, write_own = _run_coalesce(cfg)
    else:
        raise ValueError(f"unknown experiment kind {kind!r}")
    elapsed = time.perf_counter() - t0

    report = RunReport(
        experiment=kind,
        config=cfg.to_dict(),
        results=results,
        replicas=cfg.replicas,
        wall_clock_seconds=elapsed,
        diagnostics=diagnostics,
        timings={"compute_s": elapsed, "artifacts_s": 0.0},
    )
    if out is not None:
        if write_own is not None:
            write_own(out)
        if kind == "rates":
            write_rate_report(report, out / "rate_report.json")
        emit_plotdata(report, out)
        # report.json goes last, so its artifacts_s covers every other artifact
        report.timings["artifacts_s"] = time.perf_counter() - t0 - elapsed
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return report


def write_rate_report(report: RunReport, path) -> None:
    """Rate report with the fixed wire schema consumed by downstream tooling."""
    res = report.results
    body = {
        "model": report.config["model"]["name"],
        "K": report.config["perturbation"],
        "p": res["p"],
        "eps_grid": res["eps_grid"],
        "errors": res["errors"],
        "std_errors": res["std_errors"],
        "G_values": res["G_values"],
        "slope": res.get("slope"),
        "r2": res.get("r_squared"),
        "flags": res.get("flags", []),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, sort_keys=True, indent=1)


def emit_plotdata(report: RunReport, target) -> list[Path]:
    """Write tidy CSV series, and an averaging run's decomposition.npy, into the target directory."""
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    res = report.results

    def write_csv(name: str, header: list[str], rows: list) -> None:
        written.append(_write_csv(target / name, header, rows))

    if report.experiment in ("average", "rates"):
        columns = [res[key] for key in ("eps_grid", "errors", "std_errors", "G_values")]
        rows = [tuple(float(col[i]) for col in columns) for i in np.argsort(res["eps_grid"])]
        write_csv("rates_error.csv", ["eps", "error"], [row[:2] for row in rows])
        write_csv("rates_bounds.csv", ["eps", "error", "std_error", "G"], rows)
        # columns (eps, replica, component, a1, a2, a3, a4, delta), one row per (eps, replica, component)
        rows = res["decompositions"]
        np.save(target / "decomposition.npy", rows.astype("<f8", copy=False))
        written.append(target / "decomposition.npy")
        if not len(rows):
            warnings.warn("empty report series: decomposition.npy has no rows")
    elif report.experiment == "coalesce":
        rows = list(zip(res["curve_times"], res["fraction_coalesced"]))
        write_csv("coalescence_fraction.csv", ["time", "fraction_coalesced"], rows)
    elif report.experiment == "kernel-check":
        rows = [(r["check"], float(r["t"]), float(r["defect"])) for r in res["records"]]
        write_csv("kernel_defects.csv", ["check", "t", "defect"], rows)
    elif report.experiment == "simulate":
        rows = [(i, float(d)) for i, d in enumerate(res["per_replica_defects"])]
        write_csv("leaf_defects.csv", ["replica", "max_leaf_defect"], rows)
    return written
