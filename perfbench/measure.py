"""One benchmark run: set-up, timed rounds, checks and the result line.

Imported by ``run.py`` only after the BLAS thread limit is in the
environment.  Untraced rounds give the end-to-end metrics; a traced run
(``--trace 1``) alternates untraced and traced rounds of the same jobs,
reports the per-layer metrics per traced round, and writes the spans as a
Chrome trace that ``repro stats`` reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench import probes
from perfbench.checks import Checker
from perfbench.workloads import CONFIG, WORKLOADS, build_suite
from repro.backend import active as active_backend
from repro.obs.metrics import registry
from repro.obs.stats import validate_trace

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: Set-ups per run; ``setup_s`` is the median of their slower half.  One
#: set-up takes ~2 s on a shared 2-core host whose speed varied by up to
#: 1.7x from second to second.
SETUPS = 5
#: A run keeps going past ``--seconds`` until the rounds its end-to-end
#: metrics come from (:func:`slower_half`) hold this many verdicts, so the
#: tail percentile (p90 at 100 samples) is always defined.
MIN_SAMPLES = 100
#: Percentiles the tail may be reported at.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    # The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000...02)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    eligible = [p for p in TAIL_LADDER if n - rank(n, p) >= 10]
    if not eligible:
        raise ValueError(f"{n} samples leave none of {TAIL_LADDER} a tail")
    return max(eligible)


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def slower_half(items, seconds=lambda r: r.wall_s):
    """The items (rounds, by default) taking at least the median time.

    Every round of a run does the same work, as does every set-up.  The
    shared host runs at a steady floor speed with bursts of up to ~1.6x
    above it, lasting seconds to minutes (NOTES.md), so the faster items
    measure the bursts and the slower half measures the floor.
    """
    cut = statistics.median(seconds(item) for item in items)
    return [item for item in items if seconds(item) >= cut]


def _git_revision() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=HERE.parent,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != HERE.parent:
        return None  # an enclosing repository, not this checkout
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the program's sources (identifies non-git checkouts)."""
    digest = hashlib.sha256()
    src = HERE.parent / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def stamp(workers: int, threads: int) -> dict:
    """Where and on what a row was measured."""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": threads,
        "workers": workers,
        "backend": active_backend().name,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


def _set_up(workload_cls, seed: int, work_dir: Path):
    """Train, build properties and warm up; returns the workload."""
    suite = build_suite()
    workload = workload_cls(suite, seed, work_dir)
    workload.warm_up()
    return workload


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """The state of one run, from set-up to the result line."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload_name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = OUT_DIR / f"work-{workload}-{os.getpid()}"
        self.rounds = []
        self.traced_rounds = []
        self.problems: list[str] = []
        self.recorder = probes.Recorder()
        self.counters: dict[str, float] = {}
        self.setup_s = 0.0
        self.setup_runs_s: list[float] = []

    # -- phases ---------------------------------------------------------

    def set_up(self) -> None:
        cls = WORKLOADS[self.workload_name]
        times, splits = [], []
        for _ in range(SETUPS):
            started = time.perf_counter()
            self.workload = _set_up(cls, self.seed, self.work_dir)
            times.append(time.perf_counter() - started)
            splits.append((self.workload.suite.train_s, self.workload.suite.props_s))
        self.setup_runs_s = times
        self.setup_s = statistics.median(slower_half(times, seconds=float))
        self.train_s = statistics.median(s[0] for s in splits)
        self.props_s = statistics.median(s[1] for s in splits)
        self.checker = Checker.for_suite(self.workload.suite.networks, CONFIG.delta)

    def _traced_round(self, number: int):
        before = registry().counters_snapshot()
        with probes.instrument(self.recorder, CONFIG.delta):
            result = self.workload.round(number)
        for name, value in registry().counters_since(before).items():
            self.counters[name] = self.counters.get(name, 0) + value
        return result

    def measure(self) -> None:
        """Rounds until the time is up and enough verdicts exist."""
        started = time.perf_counter()
        number = 0
        while True:
            if self.trace and number % 2 == 1:
                self.traced_rounds.append(self._traced_round(number))
            else:
                self.rounds.append(self.workload.round(number))
            number += 1
            samples = sum(len(r.verdicts) for r in slower_half(self.rounds))
            if (
                time.perf_counter() - started >= self.seconds
                and samples >= MIN_SAMPLES
                and (self.traced_rounds or not self.trace)
            ):
                break

    def check(self) -> tuple[int, int]:
        """``(attempted, failed)`` over every verdict of every round."""
        attempted = failed = 0
        seen: dict[tuple, str] = {}
        for result in self.rounds + self.traced_rounds:
            for verdict in result.verdicts:
                attempted += 1
                problem = self.checker.check(verdict)
                key = (verdict.name, id(verdict.network))
                kind = verdict.outcome.kind
                if problem is None and seen.setdefault(key, kind) != kind:
                    problem = (
                        f"{verdict.name}: {kind} here, {seen[key]} in another round"
                    )
                if problem is not None:
                    failed += 1
                    self.problems.append(problem)
        return attempted, failed

    # -- metrics --------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        verdicts = [v for r in self.rounds for v in r.verdicts]
        wall = sum(r.wall_s for r in self.rounds)
        steady = slower_half(self.rounds)
        latencies = [v.latency_s for r in steady for v in r.verdicts]
        tail = tail_percentile(len(latencies))
        decided = sum(v.outcome.kind in ("verified", "falsified") for v in verdicts)
        rate = statistics.median(len(r.verdicts) / r.wall_s for r in steady)
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "props_per_s": (rate, "1/s"),
            "verdict_p50_s": (percentile(latencies, 50.0), "s"),
            "verdict_tail_s": (percentile(latencies, tail), "s"),
            "decided_share": (decided / len(verdicts), "ratio"),
            "peak_rss_mb": (_rss_mb(), "MB"),
        }
        detail = {
            "tail_percentile": tail,
            "latency_samples": len(latencies),
            "setup_runs_s": self.setup_runs_s,
            "rounds": len(self.rounds),
            "steady_rounds": len(steady),
            "round_walls_s": [r.wall_s for r in self.rounds],
            "timed_wall_s": wall,
        }
        return metrics, detail

    def per_layer(self) -> dict:
        return layer_metrics(
            self.recorder, self.traced_rounds, self.rounds, self.counters,
            self.workload, self.train_s, self.props_s,
        )

    # -- output ---------------------------------------------------------

    def write_trace(self) -> Path:
        payload = probes.chrome_trace(self.recorder, self.counters)
        errors = validate_trace(payload)
        if errors:
            raise RuntimeError(f"trace payload rejected: {errors[:3]}")
        path = OUT_DIR / f"trace-{self.workload_name}-seed{self.seed}.json"
        path.write_text(json.dumps(payload))
        return path


def _sum_args(spans, key) -> float:
    return float(sum(s.args.get(key, 0) for s in spans))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, traced, untraced, counters, workload, train_s,
                  props_s) -> dict:
    """Per-layer metrics, per traced round, from the recorded spans."""
    rounds = len(traced)
    self_times = recorder.self_times()
    by_name: dict[str, list] = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def self_s(name, where=None):
        return sum(
            self_times[s.id] for s in spans(name) if where is None or where(s)
        ) / rounds

    def total_s(name):
        return sum(s.duration for s in spans(name)) / rounds

    def count(name):
        return len(spans(name)) / rounds

    pgd, analyze = spans("attack.pgd"), spans("abstract.analyze")
    reports = [rep for r in traced for rep in r.reports]
    fresh = [v for r in traced for v in r.verdicts if not v.cached]
    gets, prefix_gets = spans("sched.cache.get"), spans("sched.prefix.get")
    calls = spans("exec.call")
    sweeps = sum(rep.sweeps for rep in reports)
    slots = sum(rep.sweeps * rep.final_batch_target for rep in reports)
    prefix_hits = counters.get("sched.prefix.hits", 0)
    prefix_probes = prefix_hits + counters.get("sched.prefix.misses", 0)
    overhead = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in untraced
    )
    values = {
        "nn.forward_calls": (count("nn.forward"), "count"),
        "nn.forward_rows": (_sum_args(spans("nn.forward"), "rows") / rounds, "count"),
        "nn.forward_s": (self_s("nn.forward"), "s"),
        "nn.backward_s": (self_s("nn.backward"), "s"),
        "attack.pgd_calls": (count("attack.pgd"), "count"),
        "attack.pgd_rows": (_sum_args(pgd, "rows") / rounds, "count"),
        "attack.pgd_self_s": (self_s("attack.pgd"), "s"),
        "attack.pgd_rows_per_s": (
            _ratio(_sum_args(pgd, "rows") / rounds, total_s("attack.pgd")), "1/s"),
        "attack.falsify_ratio": (
            _ratio(_sum_args(pgd, "falsified"), _sum_args(pgd, "rows")), "ratio"),
        "abstract.analyze_calls": (count("abstract.analyze"), "count"),
        "abstract.analyze_rows": (_sum_args(analyze, "rows") / rounds, "count"),
        "abstract.rows_per_call": (
            _ratio(_sum_args(analyze, "rows"), len(analyze)), "count"),
    }
    for domain in ("interval", "deeppoly", "zonotope", "powerset"):
        values[f"abstract.{domain}_s"] = (
            self_s("abstract.analyze", lambda s, d=domain: s.args["domain"] == d),
            "s",
        )
    values.update({
        "abstract.verified_ratio": (
            _ratio(_sum_args(analyze, "verified"), _sum_args(analyze, "rows")),
            "ratio"),
        "core.policy_s": (self_s("core.policy"), "s"),
        "core.refine_s": (self_s("core.refine"), "s"),
        "core.nodes_per_prop": (
            _ratio(sum(v.outcome.stats.pgd_calls for v in fresh), len(fresh)),
            "count"),
        "sched.run_s": (total_s("sched.run"), "s"),
        "sched.self_s": (self_s("sched.run"), "s"),
        "sched.sweeps": (sweeps / rounds, "count"),
        "sched.batch_fill": (
            _ratio(sum(rep.swept_items for rep in reports), slots), "ratio"),
        "sched.cache.get_s": (
            self_s("sched.cache.get") + self_s("sched.prefix.get"), "s"),
        "sched.cache.put_s": (
            self_s("sched.cache.put") + self_s("sched.prefix.put"), "s"),
        "sched.cache.hit_ratio": (
            _ratio(sum(s.args["hit"] for s in gets), len(gets)), "ratio"),
        "sched.prefix.hit_ratio": (_ratio(prefix_hits, prefix_probes), "ratio"),
        "sched.prefix.layers_skipped": (
            sum(rep.prefix_layers_skipped for rep in reports) / rounds, "count"),
        "sched.cache.bytes": (getattr(workload, "cache_bytes", 0), "bytes"),
        "exec.calls": (count("exec.call"), "count"),
        "exec.wait_s": (_sum_args(calls, "wait_s") / rounds, "s"),
        "exec.busy_s": (total_s("exec.call"), "s"),
        "exec.overlap": (_ratio(total_s("exec.call"), total_s("sched.run")), "ratio"),
        "obs.trace_overhead": (overhead, "ratio"),
        "setup.train_s": (train_s, "s"),
        "setup.props_s": (props_s, "s"),
    })
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, threads: int) -> int:
    """Run one workload and print the result line; returns the exit code."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    state = Run(workload, seed, seconds, trace)
    try:
        state.set_up()
        state.measure()
    except Exception:  # noqa: BLE001 - a raising run is reported, not a result
        traceback.print_exc()
        print(f"{workload}: the program raised; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(state.work_dir, ignore_errors=True)
    attempted, failed = state.check()
    e2e, detail = state.end_to_end()
    row = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "stamp": stamp(state.workload.workers, threads),
        "failed_share": failed / attempted,
        "known_answers_compared": state.checker.compared,
        "known_answer_stale_networks": state.checker.stale,
        "problems": state.problems[:20],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        **detail,
    }
    if trace:
        layers = state.per_layer()
        row["per_layer"] = {k: v for k, (v, _) in layers.items()}
        row["trace_file"] = str(state.write_trace().relative_to(HERE.parent))
        chosen = layers
    else:
        chosen = e2e
    name = f"row-{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(row, indent=1) + "\n")
    print(json.dumps({"row": row}))
    for problem in state.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in chosen.items()
        },
    }))
    return 0 if failed == 0 else 1
