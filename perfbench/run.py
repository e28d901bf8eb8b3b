"""End-to-end benchmark of repro-solar: one workload, measured in passes.

Usage, from the repository root::

    python3 perfbench/run.py --workload reproduce|matrix|fleet|serve \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-expected

Every pass runs in a fresh single-threaded process (BLAS pinned to one
thread, no pools) with fresh cache and state directories, until the
next pass would end past ``--seconds`` (and at least three passes
untraced, two traced).  All passes share one CPU with the host-speed
probe, which scales their times to a reference host speed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics untraced, the
per-layer metrics with ``--trace 1``.  ``perfbench/README.md``
documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.probe import speed_scale  # noqa: E402
from perfbench.stats import percentile  # noqa: E402
from perfbench.tracer import LAYER_METRICS, format_table  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, EXPECTED_PATH, GOLDEN_DIR, WORKLOADS  # noqa: E402

#: End-to-end metrics (every workload, untraced passes): name, unit.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

#: Every end-to-end metric is the median over the run's untraced
#: passes.  ``setup_s`` and ``wall_s`` are each pass's CPU time scaled
#: by the host-speed probe (``perfbench/probe.py``), so a pass that ran
#: while the host was slow reads like one that ran while it was calm.
#: Per-layer times and serve latencies are scaled by their pass's
#: ``speed`` (scaled over raw ``wall_s``) for the same reason.

#: Serve request latency, from the untraced passes of a traced run.
SERVE_LATENCY = (
    ("serve.observe_p50_ms", "ms"),
    ("serve.observe_p99_ms", "ms"),
    ("serve.observe_samples", "count"),
    ("serve.forecast_p50_ms", "ms"),
    ("serve.forecast_p99_ms", "ms"),
    ("serve.forecast_samples", "count"),
    ("serve.ops_per_s", "1/s"),
)

PER_LAYER = tuple((name, unit) for name, unit, _ in LAYER_METRICS) + SERVE_LATENCY + (
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

PASS_TIMEOUT_S = 150
WORK_ROOT = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _libc():
    """libc with the signatures of the three mount calls declared."""
    import ctypes
    import ctypes.util

    libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
    libc.unshare.argtypes = [ctypes.c_int]
    libc.mount.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
                           ctypes.c_ulong, ctypes.c_char_p]
    libc.umount2.argtypes = [ctypes.c_char_p, ctypes.c_int]
    for fn in (libc.unshare, libc.mount, libc.umount2):
        fn.restype = ctypes.c_int
    return libc


def mount_private_tmpfs(path: Path) -> bool:
    """Mount a tmpfs at ``path`` visible to this process and its passes only.

    Checkpoint writes and cache files then stay off the disk (on ext4 a
    durable observe's p99 is several times its tmpfs value, and noisy)
    while every path stays inside the checkout, the only place the
    benchmark may write.  The mount lives in a private mount namespace,
    so nothing outside this process tree sees it and it is gone when the
    run exits.  Returns False, changing nothing visible, when the
    process may not mount.
    """
    clone_newns, ms_rec, ms_private = 0x00020000, 0x4000, 0x40000
    try:
        libc = _libc()
    except (OSError, AttributeError):
        return False
    if libc.unshare(clone_newns) != 0:
        return False
    if libc.mount(b"none", b"/", None, ms_rec | ms_private, None) != 0:
        return False
    return libc.mount(b"perfbench", str(path).encode(), b"tmpfs", 0,
                      b"size=1g,mode=0700") == 0


def unmount(path: Path) -> None:
    _libc().umount2(str(path).encode(), 0)


def on_tmpfs(path: Path) -> bool:
    """Whether ``path`` lives on a tmpfs mount (from /proc/self/mountinfo)."""
    target = str(path.resolve())
    best, fstype = "", ""
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return False
    for line in lines:
        fields = line.split()
        mount_point = fields[4]
        if (target == mount_point or target.startswith(mount_point.rstrip("/") + "/")) \
                and len(mount_point) >= len(best):
            best, fstype = mount_point, fields[fields.index("-") + 1]
    return fstype == "tmpfs"


def spawn(spec: dict, spec_path: Path) -> dict:
    """Run one worker process to completion; returns its result."""
    spec["spawned"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", str(spec_path)],
            cwd=ROOT, env=pinned_env(), stdout=sys.stderr, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} process ran past {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} process exited with status {proc.returncode}")
    result_path = spec_path.parent / "result.json"
    return json.loads(result_path.read_text()) if result_path.exists() else {}


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Run the block, and every process it starts, on the highest-numbered allowed CPU.

    One CPU for every pass keeps a pass from migrating mid-run, gives
    all passes the same core, and puts the host-speed probe on the core
    it measures.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield max(allowed)
    finally:
        os.sched_setaffinity(0, allowed)


@contextlib.contextmanager
def host_probe(work_dir: Path):
    """Run ``perfbench.probe`` beside the block; yields its samples, filled when the block ends."""
    samples: list = []
    out = work_dir / "probe.json"
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.probe", str(out)],
                            cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE)
    try:
        proc.stdout.readline()  # the first kernel has run
        yield samples
    finally:
        proc.terminate()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"host-speed probe exited with status {proc.returncode}")
    samples.extend(tuple(sample) for sample in json.loads(out.read_text()))


def check_checkout() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no package sources under {ROOT / 'src'}")
    if not GOLDEN_DIR.is_dir():
        raise BenchError(f"no golden files under {GOLDEN_DIR}")


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path,
            params: dict = None, min_passes: int = None) -> dict:
    """Prepare once, then run passes in ``work_dir``; returns every pass's result.

    Passes run until the next one would end past ``seconds``, and at
    least ``min_passes`` of them (3 untraced; 2 traced, alternating
    untraced and traced).  The last traced pass leaves its spans in
    ``work_dir / "spans.jsonl"``.
    """
    check_checkout()
    params = dict(params or {})
    instance = WORKLOADS[workload](**params)
    if min_passes is None:
        min_passes = 2 if trace else 3
    base = {"workload": workload, "params": params, "seed": seed, "work_dir": str(work_dir)}
    spawn(dict(base, mode="prepare"), work_dir / "prepare.json")
    passes = []
    with pinned_to_one_cpu() as cpu, host_probe(work_dir) as samples:
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            if len(passes) >= min_passes and elapsed + elapsed / len(passes) > seconds:
                break
            pass_dir = work_dir / f"pass-{len(passes)}"
            pass_dir.mkdir()
            if hasattr(instance, "prepare_pass"):
                instance.prepare_pass(pass_dir, work_dir)
            traced = trace and len(passes) % 2 == 1
            result = spawn(dict(base, mode="pass", pass_dir=str(pass_dir), trace=traced),
                           pass_dir / "spec.json")
            if traced:
                shutil.move(str(pass_dir / "spans.jsonl"), work_dir / "spans.jsonl")
            shutil.rmtree(pass_dir)
            passes.append(result)
    for p in passes:
        for name, window in (("setup", p["setup_window"]), ("wall", p["run_window"])):
            p[f"{name}_raw_s"] = window[1] - window[0]
            p[f"{name}_scale"] = speed_scale(samples, *window)
            p[f"{name}_s"] = p[f"{name}_cpu_s"] * p[f"{name}_scale"]
        p["speed"] = p["wall_s"] / p["wall_raw_s"]
    context = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "state_on_tmpfs": on_tmpfs(work_dir),
        "pass_cpu": cpu,
        "probe_samples": len(samples),
    }
    return {"workload": workload, "seed": seed, "params": params,
            "context": context, "passes": passes}


def _latency_metrics(untraced: list) -> dict:
    """Pooled serve latencies; a percentile the samples cannot support is None."""
    pooled = {"observe": [], "forecast": []}
    for p in untraced:
        for op, samples in p.get("latencies_ms", {}).items():
            pooled[op].extend(ms * p["speed"] for ms in samples)
    metrics = {name: 0.0 for name, _ in SERVE_LATENCY}
    if pooled["observe"]:
        for op, samples in pooled.items():
            for q in (50, 99):
                try:
                    metrics[f"serve.{op}_p{q}_ms"] = percentile(samples, q)
                except ValueError:
                    metrics[f"serve.{op}_p{q}_ms"] = None
            metrics[f"serve.{op}_samples"] = len(samples)
        requests = sum(len(s) for s in pooled.values())
        metrics["serve.ops_per_s"] = requests / sum(p["wall_s"] for p in untraced)
    return metrics


def summarize(run: dict, trace: bool) -> dict:
    """The result line: totals plus the metrics of the requested mode."""
    passes = run["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    mean, median = statistics.fmean, statistics.median
    if trace:
        values = {
            name: mean([p["layers"][name] * (p["speed"] if unit == "s" else 1.0) for p in traced])
            for name, unit, _ in LAYER_METRICS
        }
        values.update(_latency_metrics(untraced))
        values["trace.coverage"] = mean([p["coverage"] for p in traced])
        values["trace.overhead"] = (
            mean([p["wall_s"] for p in traced]) / mean([p["wall_s"] for p in untraced]) - 1.0
        )
        units = PER_LAYER
    else:
        values = {name: median([p[name] for p in untraced]) for name, _ in END_TO_END}
        units = END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def report(run: dict, summary: dict, trace: bool) -> str:
    """Human-readable lines printed before the result line."""
    ctx = run["context"]
    passes = run["passes"]
    lines = [
        f"perfbench {run['workload']}: seed={run['seed']} passes={len(passes)} "
        f"(one fresh process each){' params=' + json.dumps(run['params']) if run['params'] else ''}",
        "machine: " + " ".join(f"{k}={v}" for k, v in ctx.items()),
        "set-up and timed phase: wall-clock, CPU, host-speed scale, CPU x scale",
        f"{'pass':>4} {'traced':>6} {'set-up':>7} {'cpu':>7} {'scale':>6} {'setup_s':>7} "
        f"{'timed':>7} {'cpu':>7} {'scale':>6} {'wall_s':>7} {'peak_rss_mb':>11} "
        f"{'attempted':>9} {'failed':>6}",
    ]
    for i, p in enumerate(passes):
        lines.append(
            f"{i:>4} {'yes' if p['traced'] else 'no':>6} {p['setup_raw_s']:>7.4f} "
            f"{p['setup_cpu_s']:>7.4f} {p['setup_scale']:>6.3f} {p['setup_s']:>7.4f} "
            f"{p['wall_raw_s']:>7.4f} {p['wall_cpu_s']:>7.4f} {p['wall_scale']:>6.3f} "
            f"{p['wall_s']:>7.4f} {p['peak_rss_mb']:>11.1f} {p['attempted']:>9} {p['failed']:>6}"
        )
        lines.extend(f"     problem: {text}" for text in p["problems"])
    untraced = [p for p in passes if not p["traced"]]
    if untraced and "latencies_ms" in untraced[0]:
        latency = _latency_metrics(untraced)
        for op in ("observe", "forecast"):
            lines.append(
                f"{op}: p50={_fmt(latency[f'serve.{op}_p50_ms'])} ms "
                f"p99={_fmt(latency[f'serve.{op}_p99_ms'])} ms "
                f"over {latency[f'serve.{op}_samples']} requests (scaled by pass speed)"
            )
        lines.append(f"closed loop: {latency['serve.ops_per_s']:.1f} requests/s (scaled), one client")
    attempted, failed = summary["attempted"], summary["failed"]
    lines.append(f"error_rate: {failed / attempted:.6f} ({failed} of {attempted} checked outputs)")
    if trace:
        last = [p for p in passes if p["traced"]][-1]
        lines.append(format_table(
            last["layer_stats"], last["traced_wall_s"],
            title=f"layers of the last traced pass ({last['traced_wall_s']:.4f} s traced wall)",
        ))
    for name, entry in summary["metrics"].items():
        lines.append(f"{name:<28} {_fmt(entry['value']):>14} {entry['unit']}")
    return "\n".join(lines)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


@contextlib.contextmanager
def work_area(workload: str):
    """A fresh per-invocation directory in the checkout, on a private tmpfs if allowed."""
    work_dir = WORK_ROOT / f"run-{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    mounted = mount_private_tmpfs(work_dir)
    try:
        yield work_dir
    finally:
        if mounted:
            unmount(work_dir)
        shutil.rmtree(work_dir, ignore_errors=True)


def record_expected() -> None:
    """Re-record the default-seed fingerprints ``fleet`` and ``serve`` are checked against."""
    recorded = {}
    for name in ("fleet", "serve"):
        with work_area(name) as work_dir:
            run = measure(name, DEFAULT_SEED, 0, False, work_dir, min_passes=1)
        recorded[name] = {
            "params": WORKLOADS[name]().params,
            "seed": DEFAULT_SEED,
            "fingerprint": run["passes"][0]["fingerprint"],
        }
    EXPECTED_PATH.write_text(json.dumps(recorded, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="re-record expected.json at the default seed and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_expected:
        parser.error("--workload is required")
    try:
        check_checkout()
        if args.record_expected:
            record_expected()
            return 0
        with work_area(args.workload) as work_dir:
            run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
            if args.trace:
                spans = WORK_ROOT / "spans" / f"{args.workload}.jsonl"
                spans.parent.mkdir(exist_ok=True)
                shutil.copyfile(work_dir / "spans.jsonl", spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize(run, bool(args.trace))
    print(report(run, summary, bool(args.trace)))
    for p in run["passes"]:
        p.pop("latencies_ms", None)
        p.pop("fingerprint", None)
    (WORK_ROOT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(run, summary=summary), indent=1) + "\n"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
