"""One benchmark operation in a fresh interpreter, started by bench/run.py.

    python3 bench/child.py setup    --config CFG [--trace SPANS]
    python3 bench/child.py pipeline --config CFG --result RESULT [--trace SPANS]

`setup` writes the workload's inputs with the generate stage. `pipeline` runs
featurize, train, infer and eval through the `relspam.cli` stage functions,
each re-reading its inputs from disk, and writes the pipeline's wall time and
the process's peak RSS to RESULT. With --trace the relspam modules are wrapped
first and the spans are written to SPANS when the operation ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from relspam import cli

import spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("op", choices=["setup", "pipeline"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--result")
    parser.add_argument("--trace")
    args = parser.parse_args()

    cfg = cli.load_config(args.config, {})
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    if args.op == "setup":
        rc = cli.cmd_generate(cfg)
    else:
        # looked up after install() so a traced run calls the wrapped stages
        stages = [getattr(cli, f"cmd_{name}") for name in spans.STAGES]
        start = time.perf_counter()
        for stage in stages:
            rc = stage(cfg)
            if rc != 0:
                break
        pipeline_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"pipeline_s": pipeline_s, "peak_rss_mb": peak_rss_mb}, fh)
    if tracer is not None:
        tracer.dump(args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
