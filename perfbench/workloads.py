"""The four benchmark workloads: inputs, the timed call, output checks.

Every workload drives the package through the public API the CLI uses.
Each has the same life cycle, split across processes by ``run.py``:

``prepare(work_dir, seed)``
    Once per invocation, untimed: inputs every pass shares (only
    ``serve`` has any -- its checkpoints and request stream).
``setup(pass_dir, work_dir, seed)``
    In the pass process, after process start and before the first timed
    operation: imports plus any program start-up (``serve``'s restart).
``run()``
    The timed phase; returns the program's output.
``check(output, seed)``
    Untimed: a :class:`Check` of how many outputs were checked and how
    many failed, plus the output's fingerprint (``fleet`` and ``serve``
    are compared with fingerprints recorded in ``expected.json`` at the
    default seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: The goldens' seed; the default workload seed.
DEFAULT_SEED = 20100308

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

_SITES = ("SPMD", "ECSU", "ORNL", "HSU", "NPCS", "PFCI")


@dataclass
class Check:
    """Outcome of checking one pass's output."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    fingerprint: Optional[list] = None

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


def load_expected(workload: str) -> Optional[dict]:
    if not EXPECTED_PATH.exists():
        return None
    return json.loads(EXPECTED_PATH.read_text()).get(workload)


def _canonical(value):
    """Floats rounded to 12 significant digits (survives SIMD width)."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _sha256_json(value) -> str:
    body = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class Reproduce:
    """``run_all(n_days)`` inline with a fresh result cache (CLI first run)."""

    name = "reproduce"

    def __init__(self, n_days: int = 365):
        self.n_days = n_days

    def prepare(self, work_dir: Path, seed: int) -> None:
        pass

    def setup(self, pass_dir: Path, work_dir: Path, seed: int) -> None:
        from repro.experiments import runner
        from repro.parallel.cache import ResultCache

        self.runner = runner
        self.cache = ResultCache(pass_dir / "cache")

    def run(self):
        return self.runner.run_all(self.n_days, cache=self.cache)

    def check(self, results, seed: int) -> Check:
        check = Check()
        names = self.runner.EXPERIMENTS
        check.expect(set(results) == set(names), f"experiments {sorted(results)}")
        if self.n_days == 365:
            report = self.runner.render_report(results) + "\n"
            golden = (GOLDEN_DIR / "report_365.txt").read_text()
            check.expect(report == golden, "report differs from report_365.txt")
            digests = json.loads((GOLDEN_DIR / "digests.json").read_text())
            for name in names:
                check.expect(
                    name in results and result_digest(results[name]) == digests[name],
                    f"{name} digest differs from digests.json",
                )
        else:
            for name in names:
                rows = results[name].rows if name in results else []
                cells = [v for row in rows for v in row.values() if isinstance(v, float)]
                check.expect(
                    bool(rows) and all(math.isfinite(v) for v in cells),
                    f"{name}: empty or non-finite rows",
                )
        return check


def result_digest(result) -> str:
    """The golden suite's digest of one ExperimentResult."""
    return _sha256_json({
        "experiment": result.experiment,
        "title": result.title,
        "headers": result.headers,
        "rows": result.rows,
        "notes": result.notes,
    })


def parse_matrix(text: str) -> Dict[tuple, tuple]:
    """(scenario, site, predictor) -> (MAPE %, dMAPE) cells of a rendered matrix."""
    cells = {}
    for line in text.splitlines()[3:]:
        parts = line.split()
        if len(parts) >= 6 and parts[0][0].islower() and parts[1].isupper():
            cells[tuple(parts[:3])] = tuple(parts[3:5])
    return cells


class Matrix:
    """``robustness.run`` on the learned golden's sites, length and seed.

    ``clean`` + ``regime-shift`` with ``wcma, ridge, gbm, adaptive``,
    tuning off, so the sweep stays out and the learned refit and the
    adaptive selector's scalar experts dominate.
    """

    name = "matrix"
    GOLDEN = dict(n_days=45, sites=("PFCI", "HSU"))
    SCENARIOS = ("clean", "regime-shift")
    PREDICTORS = ("wcma", "ridge", "gbm", "adaptive")

    def __init__(self, n_days: int = 45, sites=("PFCI", "HSU")):
        self.n_days = n_days
        self.sites = tuple(sites)

    def prepare(self, work_dir: Path, seed: int) -> None:
        pass

    def setup(self, pass_dir: Path, work_dir: Path, seed: int) -> None:
        from repro.experiments import robustness
        from repro.parallel.cache import ResultCache

        self.robustness = robustness
        self.cache = ResultCache(pass_dir / "cache")
        self.seed = seed

    def run(self):
        return self.robustness.run(
            n_days=self.n_days,
            sites=self.sites,
            scenarios=self.SCENARIOS,
            predictors=self.PREDICTORS,
            tune_wcma=False,
            seed=self.seed,
            cache=self.cache,
        )

    def check(self, result, seed: int) -> Check:
        check = Check()
        cells = parse_matrix(result.render())
        expected_keys = {
            (scenario, site, predictor)
            for scenario in self.SCENARIOS
            for site in self.sites
            for predictor in self.PREDICTORS
        }
        check.expect(set(cells) == expected_keys and len(result.rows) == len(expected_keys),
                     f"matrix has {len(result.rows)} rows, expected {len(expected_keys)}")
        golden = None
        if seed == DEFAULT_SEED and (self.n_days, self.sites) == (
            self.GOLDEN["n_days"], self.GOLDEN["sites"]
        ):
            golden = parse_matrix((GOLDEN_DIR / "robustness_45d_learned.txt").read_text())
        for row in result.rows:
            key = (row["scenario"], row["site"], row["predictor"])
            if golden is not None:
                check.expect(cells.get(key) == golden.get(key),
                             f"{key}: {cells.get(key)} != golden {golden.get(key)}")
            else:
                ok = _finite(row["mape"]) and row["mape"] >= 0
                if row["scenario"] == "clean":
                    ok = ok and row["dMAPE vs clean (pp)"] == 0
                check.expect(ok, f"{key}: mape {row['mape']!r}")
        return check


class Fleet:
    """``run_fleet_blocks`` on a heterogeneous 30-day plan, inline."""

    name = "fleet"
    PLAN_AXES = dict(
        sites=_SITES,
        predictors=("wcma", "ewma", "persistence", "previous-day"),
        controllers=("kansal", "minvar"),
        capacities=(250.0, 5000.0),  # below 1000 J: supercap; above: battery
        scenarios=("clean", "soiling", "dropout"),
    )
    FRACTIONS = ("mean_duty", "downtime_fraction", "waste_fraction", "final_soc")

    def __init__(self, n_nodes: int = 4096, block_size: int = 256, n_days: int = 30):
        self.n_nodes = n_nodes
        self.block_size = block_size
        self.n_days = n_days

    @property
    def params(self) -> dict:
        return {"n_nodes": self.n_nodes, "block_size": self.block_size, "n_days": self.n_days}

    def prepare(self, work_dir: Path, seed: int) -> None:
        pass

    def setup(self, pass_dir: Path, work_dir: Path, seed: int) -> None:
        from repro.parallel import fleet
        from repro.parallel.cache import ResultCache

        self.fleet = fleet
        self.cache = ResultCache(pass_dir / "cache")
        self.plan = fleet.FleetPlan(
            n_nodes=self.n_nodes, n_days=self.n_days, scenario_seed=seed, **self.PLAN_AXES
        )

    def run(self):
        aggregate, _ = self.fleet.run_fleet_blocks(
            self.plan, block_size=self.block_size, cache=self.cache
        )
        return aggregate

    def check(self, aggregate, seed: int) -> Check:
        import numpy as np

        check = Check()
        check.expect(aggregate.n_nodes == self.n_nodes
                     and aggregate.total_slots == self.n_days * 48,
                     f"aggregate covers {aggregate.n_nodes} nodes x {aggregate.total_slots} slots")
        blocks = self.fleet.plan_blocks(self.n_nodes, self.block_size)
        fingerprint = []
        for start, stop in blocks:
            part = {
                name: getattr(aggregate, name)[start:stop].tolist()
                for name in aggregate._FLOAT_FIELDS + ("shortfall_slots",)
            }
            part["names"] = list(aggregate.node_names[start:stop])
            fingerprint.append(_sha256_json(part)[:16])
            fractions = np.stack([getattr(aggregate, f)[start:stop] for f in self.FRACTIONS])
            check.expect(
                bool(np.isfinite(fractions).all()
                     and (fractions >= -1e-12).all() and (fractions <= 1 + 1e-12).all()),
                f"block {start}:{stop}: fraction outside [0, 1]",
            )
        check.fingerprint = fingerprint
        expected = load_expected(self.name)
        if seed == DEFAULT_SEED and expected and expected["params"] == self.params:
            for (start, stop), got, want in zip(blocks, fingerprint, expected["fingerprint"]):
                check.expect(got == want, f"block {start}:{stop} differs from expected.json")
        return check


def _irradiance(slot: int, n_slots: int) -> float:
    """Clear-day power shape (W/m^2): zero at night, 1000 at noon."""
    x = (slot + 0.5) / n_slots
    return max(0.0, 1000.0 * math.sin(math.pi * (x - 0.25) / 0.5)) if 0.25 < x < 0.75 else 0.0


class ClosedLoop:
    """One JSONL client of ``serve_stdin``: both its stdin and stdout.

    The iterator hands the transport the next request only after the
    response to the previous one was written (one client, waiting on
    every reply), and time-stamps both ends of every request.
    """

    def __init__(self, lines: List[str]):
        self.lines = lines
        self.responses: List[str] = []
        self.events: List[str] = []
        self.sent = [0.0] * len(lines)
        self.done = [0.0] * len(lines)
        self._pending = False

    def __iter__(self):
        from time import perf_counter

        for i, line in enumerate(self.lines):
            if self._pending or len(self.responses) != i:
                raise RuntimeError("closed loop broken: request sent before reply")
            self._pending = True
            self.sent[i] = perf_counter()
            yield line

    def write(self, text: str) -> None:
        from time import perf_counter

        if self._pending:
            self.done[len(self.responses)] = perf_counter()
            self._pending = False
            self.responses.append(text)
        else:
            self.events.append(text)

    def flush(self) -> None:
        pass


class Serve:
    """A durable WCMA daemon restart, then a closed-loop JSONL session.

    ``n_sites`` logical sites (cycling over the six datasets) resume
    from checkpoints; then at each of ``rounds`` slot boundaries every
    site observes and every site forecasts, each phase in a seed-shuffled
    order, with ``checkpoint_every=1``.
    """

    name = "serve"
    N_SLOTS = 48
    START_SLOT = 20  # the restart resumes mid-morning of the day after warm-up

    def __init__(self, n_sites: int = 1000, rounds: int = 16, warm_days: int = 12):
        self.n_sites = n_sites
        self.rounds = rounds
        self.warm_days = warm_days

    @property
    def params(self) -> dict:
        return {"n_sites": self.n_sites, "rounds": self.rounds, "warm_days": self.warm_days}

    def site(self, i: int) -> str:
        return f"node-{i:04d}"

    def prepare(self, work_dir: Path, seed: int) -> None:
        """Checkpoints of every logical site plus the request stream."""
        from repro.serve.service import ForecastService
        from repro.serve.state import StateStore
        from repro.solar.datasets import build_dataset
        from repro.solar.slots import SlotView

        warm = ForecastService(n_slots=self.N_SLOTS, predictor="wcma",
                               state_dir=work_dir / "serve-warm")
        for dataset in _SITES:
            site = f"warm-{dataset}"
            warm.handle({"op": "register", "site": site, "dataset": dataset})
            warm.handle({"op": "replay", "site": site, "days": self.warm_days})
            starts = SlotView.from_trace(
                build_dataset(dataset, n_days=self.warm_days + 1), self.N_SLOTS
            ).flat_starts()[self.warm_days * self.N_SLOTS:]
            for value in starts[: self.START_SLOT]:
                warm.handle({"op": "observe", "site": site, "value": float(value)})
        warm_states = {d: warm.store.load(f"WARM-{d}", "wcma") for d in _SITES}
        store = StateStore(work_dir / "serve-checkpoints")
        for i in range(self.n_sites):
            store.save(self.site(i).upper(), "wcma", warm_states[_SITES[i % len(_SITES)]])
        shutil.rmtree(work_dir / "serve-warm")

        rng = random.Random(seed)
        order = list(range(self.n_sites))
        lines = []
        for r in range(self.rounds):
            peak = _irradiance(self.START_SLOT + r, self.N_SLOTS)
            rng.shuffle(order)
            for i in order:
                value = round(peak * (0.25 + 0.75 * rng.random()), 3)
                lines.append(json.dumps({"op": "observe", "site": self.site(i), "value": value}))
            rng.shuffle(order)
            lines.extend(json.dumps({"op": "forecast", "site": self.site(i)}) for i in order)
        (work_dir / "serve-requests.jsonl").write_text("\n".join(lines) + "\n")

    def prepare_pass(self, pass_dir: Path, work_dir: Path) -> None:
        """A fresh copy of the checkpoints for one pass (untimed)."""
        shutil.copytree(work_dir / "serve-checkpoints", pass_dir / "state")

    def setup(self, pass_dir: Path, work_dir: Path, seed: int) -> None:
        from repro.serve import daemon
        from repro.serve.service import ForecastService

        self.daemon = daemon
        self.service = ForecastService(n_slots=self.N_SLOTS, predictor="wcma",
                                       state_dir=pass_dir / "state", checkpoint_every=1)
        self.registered = [
            self.service.handle({"op": "register", "site": self.site(i),
                                 "dataset": _SITES[i % len(_SITES)]})
            for i in range(self.n_sites)
        ]
        self.lines = (work_dir / "serve-requests.jsonl").read_text().splitlines()

    def run(self):
        loop = ClosedLoop(self.lines)
        self.daemon.serve_stdin(self.service, in_stream=loop, out_stream=loop)
        return loop

    def check(self, loop: ClosedLoop, seed: int) -> Check:
        check = Check()
        for response in self.registered:
            check.expect(response.get("ok") is True and "resumed_from" in response,
                         f"restart did not resume: {response}")
        check.expect(len(loop.responses) == len(loop.lines),
                     f"{len(loop.responses)} responses to {len(loop.lines)} requests")
        prediction: Dict[str, float] = {}
        digest: Dict[str, str] = {}
        for line, text in zip(loop.lines, loop.responses):
            request = json.loads(line)
            response = json.loads(text)
            site = request["site"].upper()
            ok = response.get("ok") is True and response.get("site") == site
            if ok and request["op"] == "observe":
                prediction[site] = response["prediction"]
                digest[site] = response["state_digest"]
                ok = _finite(response["prediction"])
            elif ok:
                ok = site in prediction and response.get("prediction") == prediction[site]
            check.expect(ok, f"{request['op']} {site}: {text.strip()}")
        check.fingerprint = [digest.get(self.site(i).upper()) for i in range(self.n_sites)]
        expected = load_expected(self.name)
        if seed == DEFAULT_SEED and expected and expected["params"] == self.params:
            for i, (got, want) in enumerate(zip(check.fingerprint, expected["fingerprint"])):
                check.expect(got == want, f"{self.site(i)} final digest differs from expected.json")
        return check

    def latencies_ms(self, loop: ClosedLoop) -> Dict[str, List[float]]:
        """Per-request latency, from hand-over to response, by op."""
        by_op: Dict[str, List[float]] = {"observe": [], "forecast": []}
        for line, sent, done in zip(loop.lines, loop.sent, loop.done):
            by_op[json.loads(line)["op"]].append(1000.0 * (done - sent))
        return by_op


WORKLOADS = {cls.name: cls for cls in (Reproduce, Matrix, Fleet, Serve)}
