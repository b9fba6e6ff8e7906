"""Parallel verification (§6): independent kernel calls on worker threads.

The recursion of Algorithm 1 is independent across sub-regions, so the
original Charon runs abstract-interpreter calls on as many threads as the
host provides.  Here the multi-property scheduler does the same one level
up: each round fuses every job's frontier chunk into one PGD call and one
Analyze call per (network, domain) group, and ``workers=N`` runs those
independent groups on N threads.  This example verifies split-heavy
properties of two networks with 1 and 2 workers and reports the effect.

Run with::

    python examples/parallel_verification.py
"""

from repro import Box, DomainSpec, RobustnessProperty, VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.data.synthetic import mnist_like
from repro.nn.builders import mlp
from repro.nn.training import TrainConfig, train_classifier
from repro.sched import Scheduler, VerificationJob


def main() -> None:
    print("training two classifiers whose properties need many splits...")
    dataset = mnist_like(num_samples=800, image_size=6, rng=0)
    flat = dataset.inputs.reshape(len(dataset), -1)
    # A deliberately weak domain (intervals) forces the splitting that the
    # worker pool parallelizes; zonotopes would verify these in one shot.
    policy = BisectionPolicy(domain=DomainSpec("interval", 1))
    # No wall-clock budget: the depth cap bounds the work, so both runs
    # below do identical work and only the thread count differs.
    config = VerifierConfig(timeout=None, max_depth=8)
    jobs = []
    for seed in (0, 1):
        network = mlp(flat.shape[1], [20, 20], dataset.num_classes, rng=seed)
        train_classifier(
            network, flat, dataset.labels,
            TrainConfig(epochs=8, learning_rate=0.01), rng=seed,
        )
        samples = [
            flat[i] for i in range(len(dataset))
            if network.classify(flat[i]) == dataset.labels[i]
        ][:3]
        for sample in samples:
            prop = RobustnessProperty(
                Box.linf_ball(sample, 0.01, clip_low=0.0, clip_high=1.0),
                network.classify(sample),
            )
            jobs.append(
                VerificationJob(network, prop, config=config, policy=policy)
            )

    print(f"\n{len(jobs)} jobs over 2 networks")
    print("workers  verified  falsified  timeout  wall-clock")
    verdicts = []
    for workers in (1, 2):
        report = Scheduler(jobs, workers=workers).run()
        counts = report.outcome_counts()
        verdicts.append([r.outcome.kind for r in report.results])
        print(
            f"{workers:>7}  {counts['verified']:>8}  {counts['falsified']:>9}  "
            f"{counts['timeout']:>7}  {report.wall_clock:>9.3f}s"
        )
    assert verdicts[0] == verdicts[1], "worker count changed a verdict"
    print("\nVerdicts are identical across pool sizes (the point of the")
    print("correctness argument: kernel groups are independent).  On these")
    print("scaled-down networks each analyzer call costs microseconds, so")
    print("thread overhead can outweigh the overlap — the paper's parallel")
    print("speedups need ELINA-scale per-region costs.")


if __name__ == "__main__":
    main()
