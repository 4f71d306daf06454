"""Command-line entry point.

    foliated-flows <simulate|kernel-check|average|rates|coalesce>
        --config <path> [--seed <int>] [--out <dir>] [--replicas <int>] [--quiet]

Validation failures exit with status 2 and a machine-readable JSON record on
stderr; runtime failures exit with status 1.  Replicas run serially in index
order; no environment variable changes a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import EXPERIMENT_KINDS, KIND_SECTIONS, ConfigError, load_config, valid_seed
from .harness import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliated-flows",
        description="Simulation and verification lab for foliated stochastic flows",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--replicas", type=int, default=None, help="override the replica count")
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def _error_record(kind: str, exc: Exception) -> str:
    record = {"error": kind, "message": str(exc)}
    if isinstance(exc, ConfigError):
        record["fields"] = exc.problems
    return json.dumps(record, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, experiment=args.experiment)
        if args.seed is not None:
            if not valid_seed(args.seed):
                raise ConfigError([f"--seed: must lie in [0, 2^64) (got {args.seed})"])
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        if args.replicas is not None:
            if args.replicas < 1:
                raise ConfigError(["--replicas: need at least one replica"])
            section = KIND_SECTIONS[args.experiment]
            inner = getattr(cfg, section)
            if not hasattr(inner, "replicas"):
                raise ConfigError([f"--replicas: {args.experiment} runs no replicas"])
            inner = dataclasses.replace(inner, replicas=args.replicas)
            cfg = dataclasses.replace(cfg, **{section: inner})
    except (ConfigError, OSError) as exc:
        print(_error_record("config", exc), file=sys.stderr)
        return 2

    try:
        report = run(cfg)
    except Exception as exc:  # noqa: BLE001 - reported as a machine-readable record
        print(_error_record("runtime", exc), file=sys.stderr)
        return 1

    if not args.quiet:
        summary = {
            "experiment": report.experiment,
            "output_dir": cfg.output_dir,
            "replicas": report.replicas,
            "wall_clock_seconds": round(report.wall_clock_seconds, 3),
        }
        found = {**report.results, **report.diagnostics}
        for key in ("max_leaf_defect", "max_defect", "slope", "cross_leaf_coalescences",
                    "pathwise_bound_violations", "streams_opened", "normals_drawn", "uniforms_drawn",
                    "semigroup_pairs"):
            if key in found:
                summary[key] = found[key]
        if "per_eps" in report.results:
            summary["n_exited"] = sum(row["n_exited"] for row in report.results["per_eps"])
        print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
