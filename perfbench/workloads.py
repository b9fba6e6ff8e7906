"""The benchmark's inputs and its two closed-loop workloads.

Every workload verifies a fixed suite drawn from the paper's fig06
networks: the six MNIST/CIFAR MLPs trained by
:func:`repro.bench.suites.build_network` (training seed 0) and the graded
brightening properties of :func:`repro.bench.suites.build_problems`
(property seed 13, the seed the figure benches use).  Each property keeps
its own verification seed, so every verdict is a pure function of the
suite: with ``timeout=None`` and a split-depth budget no verdict depends
on host speed, and ``decided_share`` is the same everywhere.

The ``--seed`` argument varies what does not change the amount of work:
the weight noise of the retrained network.  The learned manifest is
fixed: with seeded orders, the median verdict latency of one
48-job manifest ranged from 2.9 s to 13 s across runs, so a seeded order
would have measured the order rather than the program.

One *round* is the unit of work a workload repeats until the run's time
is up; every round of a run verifies the same jobs.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.abstract.domains import DEEPPOLY
from repro.bench import suites
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.learn.pretrained import pretrained_policy
from repro.nn.network import Network
from repro.nn.serialize import load_network, save_network
from repro.sched import Scheduler, VerificationJob
from repro.sched.cache import ResultCache
from repro.sched.frontier import AdaptiveBatchController

from perfbench.spec import WORKERS

#: The fig06 MLPs, in manifest order.
NETWORKS = (
    "mnist_3x100",
    "mnist_6x100",
    "mnist_9x200",
    "cifar_3x100",
    "cifar_6x100",
    "cifar_9x100",
)
TRAIN_SEED = 0
PROPERTY_SEED = 13
#: Properties built per network (``build_problems`` cycles the four
#: strengths, so a multiple of four keeps the grading).
PROPERTIES_PER_NETWORK = 8

#: The split-depth budget that replaces a wall-clock timeout.
CONFIG = VerifierConfig(timeout=None, max_depth=3)

#: With ``mnist_9x200`` one learned-policy manifest took 15-19 s even at
#: depth 2; without it 5-6 s at depth 3, so a run holds several.
LEARNED_NETWORKS = tuple(n for n in NETWORKS if n != "mnist_9x200")
#: Retraining reuses the unchanged prefix only when there is a deep one.
RETRAIN_NETWORKS = ("mnist_9x200", "cifar_9x100")
#: Dense layers sit at even indices ``[D, R] * k + [D]``; a fine-tune of
#: the last two dense layers touches indices -1 and -3.
RETRAINED_LAYERS = (-1, -3)
RETRAIN_NOISE = 1e-6


@dataclass(frozen=True)
class Suite:
    """The trained networks and their properties."""

    networks: dict[str, Network]
    #: ``(network name, property index, RobustnessProperty)`` triples.
    properties: list[tuple[str, int, object]]
    train_s: float
    props_s: float


def build_suite() -> Suite:
    """Train the fig06 networks and build every property, from scratch.

    ``build_network`` memoizes per process; the memo is cleared so that
    each call pays the training a fresh process pays.
    """
    suites._NETWORK_CACHE.clear()
    scale = suites.SuiteScale()
    started = time.perf_counter()
    bench_nets = {
        name: suites.build_network(name, scale, seed=TRAIN_SEED)
        for name in NETWORKS
    }
    train_s = time.perf_counter() - started
    started = time.perf_counter()
    properties = []
    for name in NETWORKS:
        problems = suites.build_problems(
            bench_nets[name], count=PROPERTIES_PER_NETWORK, rng=PROPERTY_SEED
        )
        properties.extend((name, i, p.prop) for i, p in enumerate(problems))
    props_s = time.perf_counter() - started
    networks = {name: bench.network for name, bench in bench_nets.items()}
    return Suite(networks, properties, train_s, props_s)


@dataclass
class Verdict:
    """One job's outcome as the benchmark observed it."""

    name: str
    network: Network
    network_name: str
    prop: object
    outcome: object
    latency_s: float
    cached: bool = False


@dataclass
class RoundResult:
    """What one round did: its verdicts, wall time and scheduler reports."""

    wall_s: float
    verdicts: list[Verdict]
    reports: list = field(default_factory=list)


def scheduler(jobs, **kwargs) -> Scheduler:
    """A scheduler whose fused sweeps always target ``CONFIG.batch_size``.

    The default controller widens the target when a wider sweep measures
    faster, so host noise picked the schedule: one learned manifest in six
    settled at 64 instead of 16 and its p90 latency rose from ~3.3 s to
    5.3 s.  A fixed target gives every round the same sweeps.
    """
    target = CONFIG.batch_size
    controller = AdaptiveBatchController(start=target, max_target=target)
    return Scheduler(jobs, controller=controller, **kwargs)


def _job(network: Network, name: str, index: int, prop, policy) -> VerificationJob:
    return VerificationJob(
        network, prop, config=CONFIG, policy=policy, seed=index,
        name=f"{name}-b{index}",
    )


def _manifest_verdicts(report, names, started, finished) -> list[Verdict]:
    """Verdicts of one manifest run.

    A fresh job's latency is its completion time within the run; a job
    served from the result cache has none recorded, so the run's wall
    clock bounds it.
    """
    verdicts = []
    for result in report.results:
        job = result.job
        latency = finished - started if result.cached else result.elapsed
        verdicts.append(
            Verdict(
                job.name, job.network, names[id(job.network)], job.prop,
                result.outcome, latency, result.cached,
            )
        )
    return verdicts


class Workload:
    """A workload: set-up from a suite, then rounds until time is up.

    Subclasses set ``policy`` in ``__init__`` and define :meth:`round`.
    """

    name = ""

    def __init__(self, suite: Suite, seed: int, work_dir: Path) -> None:
        self.suite = suite
        self.seed = seed
        self.work_dir = work_dir
        self.workers = WORKERS[self.name]
        self.names = {id(net): name for name, net in suite.networks.items()}

    def inputs(self) -> dict:
        """A description of the generated inputs (for the self-tests)."""
        raise NotImplementedError

    def networks(self) -> list[tuple[str, Network]]:
        """Every network the workload verifies."""
        return list(self.suite.networks.items())

    def warm_up(self) -> None:
        """One cheap job per network: lowers ops and starts BLAS."""
        for name, network in self.networks():
            index, prop = next(
                (i, p) for n, i, p in self.suite.properties if n == name
            )
            scheduler([_job(network, name, index, prop, self.policy)]).run()

    def round(self, number: int) -> RoundResult:
        raise NotImplementedError


class LearnedManifest(Workload):
    name = "learned-manifest"

    def __init__(self, suite, seed, work_dir):
        super().__init__(suite, seed, work_dir)
        self.policy = pretrained_policy()
        self.entries = [
            (n, i, p) for n, i, p in suite.properties
            if n in LEARNED_NETWORKS
        ]

    def inputs(self):
        return {"manifest": [f"{n}-b{i}" for n, i, _ in self.entries]}

    def round(self, number):
        jobs = [
            _job(self.suite.networks[n], n, i, p, self.policy)
            for n, i, p in self.entries
        ]
        started = time.perf_counter()
        report = scheduler(jobs, workers=self.workers).run()
        finished = time.perf_counter()
        return RoundResult(
            finished - started,
            _manifest_verdicts(report, self.names, started, finished),
            [report],
        )


def retrained_copy(network: Network, path: Path, seed) -> Network:
    """``network`` with seeded noise on its last two dense layers."""
    save_network(network, path)
    copy = load_network(path)
    copy.thaw_params()
    gen = np.random.default_rng(seed)
    for index in RETRAINED_LAYERS:
        layer = copy.layers[index]
        layer.weight += gen.normal(0.0, RETRAIN_NOISE, layer.weight.shape)
    copy.invalidate_ops()
    return copy


class RetrainReverify(Workload):
    name = "retrain-reverify"

    def __init__(self, suite, seed, work_dir):
        super().__init__(suite, seed, work_dir)
        self.policy = BisectionPolicy(domain=DEEPPOLY)
        self.entries = [
            (n, i, p) for n, i, p in suite.properties
            if n in RETRAIN_NETWORKS
        ]
        work_dir.mkdir(parents=True, exist_ok=True)
        self.retrained = {
            name: retrained_copy(
                suite.networks[name], work_dir / f"{name}.npz", [seed, k]
            )
            for k, name in enumerate(RETRAIN_NETWORKS)
        }
        for name, network in self.retrained.items():
            self.names[id(network)] = name
        self.cache_bytes = 0

    def networks(self):
        return super().networks() + list(self.retrained.items())

    def inputs(self):
        return {
            "manifest": [f"{n}-b{i}" for n, i, _ in self.entries],
            "retrained_weights": {
                name: float(
                    sum(np.abs(net.layers[i].weight).sum() for i in RETRAINED_LAYERS)
                )
                for name, net in self.retrained.items()
            },
        }

    def _jobs(self, networks):
        return [
            _job(networks[n], n, i, p, self.policy) for n, i, p in self.entries
        ]

    def round(self, number):
        cache_dir = self.work_dir / "cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ResultCache(cache_dir)
        verdicts, reports = [], []
        round_started = time.perf_counter()
        # Cold, then retrained (prefix reads), then unchanged (cache hits).
        for networks in (self.suite.networks, self.retrained, self.retrained):
            started = time.perf_counter()
            report = scheduler(
                self._jobs(networks), cache=cache, incremental=True,
                workers=self.workers,
            ).run()
            finished = time.perf_counter()
            verdicts.extend(
                _manifest_verdicts(report, self.names, started, finished)
            )
            reports.append(report)
        wall = time.perf_counter() - round_started
        self.cache_bytes = sum(
            f.stat().st_size for f in cache_dir.rglob("*") if f.is_file()
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        return RoundResult(wall, verdicts, reports)


WORKLOADS = {
    cls.name: cls for cls in (LearnedManifest, RetrainReverify)
}
