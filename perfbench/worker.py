"""One benchmark pass in a fresh process.

``run.py`` starts ``python3 -m perfbench.worker SPEC.json`` from the
repository root once per pass (and once, with ``"mode": "prepare"``,
per invocation).  A pass sets its workload up, runs the timed phase,
checks the output and writes ``result.json`` next to the spec; with
``"trace": true`` it also installs the tracer before set-up and writes
the spans as ``spans.jsonl``.  The process inherits the launcher's
one CPU.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path


def run_pass(spec: dict) -> dict:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](**spec["params"])
    work_dir = Path(spec["work_dir"])
    seed = spec["seed"]
    if spec["mode"] == "prepare":
        workload.prepare(work_dir, seed)
        return {}

    pass_dir = Path(spec["pass_dir"])
    tracer = None
    if spec["trace"]:
        from perfbench.tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    t_traced = time.monotonic()
    workload.setup(pass_dir, work_dir, seed)
    t0, cpu0 = time.monotonic(), time.process_time()
    output = workload.run()
    t1, cpu1 = time.monotonic(), time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check = workload.check(output, seed)
    import numpy

    result = {
        "setup_window": [spec["spawned"], t0],
        "run_window": [t0, t1],
        "setup_cpu_s": cpu0,
        "wall_cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "fingerprint": check.fingerprint,
        "traced": tracer is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if hasattr(workload, "latencies_ms"):
        result["latencies_ms"] = workload.latencies_ms(output)
    if tracer is not None:
        from perfbench.tracer import layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["layer_stats"] = tracer.layer_stats()
        result["traced_wall_s"] = t1 - t_traced
        result["coverage"] = tracer.covered(t_traced, t1) / (t1 - t_traced)
        tracer.write_jsonl(pass_dir / "spans.jsonl")
    return result


def main(argv) -> int:
    spec_path = Path(argv[0])
    spec = json.loads(spec_path.read_text())
    result = run_pass(spec)
    (spec_path.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
