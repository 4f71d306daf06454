"""Run one benchmark workload in a fresh interpreter through the public API.

    python3 perfbench/child.py --config FILE --result FILE [--spans FILE] [--setup-only]

The child imports foliated_flows from the checkout's ``src``, loads the
config (``config.load_config``), runs it (``harness.run``, which writes the
artifacts under the config's output directory) and writes a JSON result:
``time.perf_counter()`` stamps at the end of set-up and after the artifacts
are written, its peak RSS, the sha256 of ``RunReport.payload()`` and the
artifact bytes.  ``perf_counter`` is CLOCK_MONOTONIC on Linux, shared by all
processes, so the parent subtracts its own launch stamp.  With ``--spans``
the public calls are traced (see tracing.py) and the spans written there.
With ``--setup-only`` it stops after loading the config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from foliated_flows import config, harness

    if not Path(config.__file__).resolve().is_relative_to(SRC):
        print(f"foliated_flows was not imported from {SRC}", file=sys.stderr)
        return 1
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.install()

    cfg = config.load_config(args.config)
    t_setup = time.perf_counter()
    result = {"t_setup": t_setup}
    if not args.setup_only:
        report = harness.run(cfg)
        result["t_done"] = time.perf_counter()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        body = json.dumps(report.payload(), sort_keys=True).encode()
        result["payload_sha256"] = hashlib.sha256(body).hexdigest()
        out = Path(cfg.output_dir)
        result["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if tracer is not None:
            tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
