"""The known-answer check applied to every verdict a run produces.

Three rules, each independent of the verifier under test:

- every FALSIFIED witness must lie in the property's region and reach a
  margin <= δ in a float64 forward pass computed here from the network's
  weight arrays;
- a VERIFIED verdict contradicts a Reluplex counterexample (from
  ``known_answers.json``) that lies in the region with a negative margin
  in that same forward pass on the network actually verified, so this
  direction applies to a retrained network too; a FALSIFIED verdict whose
  witness has a negative margin contradicts a Reluplex VERIFIED, which
  holds only for the network Reluplex ran on;
- a budget-exhausted verdict must come from the split-depth budget, the
  only budget the benchmark sets.

A verdict that cannot be checked fails: one on a network whose digest
differs from the file's (training gave other bits, or the file is stale),
or one whose property has no entry with a matching digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.nn.layers import Dense, Flatten, ReLU
from repro.nn.serialize import network_digest
from repro.sched.cache import property_digest

KNOWN_ANSWERS = Path(__file__).resolve().parent / "known_answers.json"

#: Summation-order round-off allowed between this forward pass and the
#: program's own when a witness margin is compared with δ.
ROUNDOFF = 1e-9

#: Budget-exhausted reasons a depth-budgeted run may report.
DEPTH_BUDGET_REASONS = ("split depth", "degenerate region")


def float64_margin(network, x, label: int) -> float:
    """``y_label - max_{j != label} y_j`` at ``x``, from the weight arrays."""
    h = np.asarray(x, dtype=np.float64).reshape(-1)
    for layer in network.layers:
        if isinstance(layer, Dense):
            weight = np.asarray(layer.weight, dtype=np.float64)
            h = weight @ h + np.asarray(layer.bias, dtype=np.float64)
        elif isinstance(layer, ReLU):
            h = np.maximum(h, 0.0)
        elif isinstance(layer, Flatten):
            h = h.reshape(-1)
        else:
            raise TypeError(
                f"no float64 reference for layer {type(layer).__name__}"
            )
    return float(h[label] - np.delete(h, label).max())


def in_region(region, x) -> bool:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return bool(
        x.shape == region.low.shape
        and np.all(x >= region.low)
        and np.all(x <= region.high)
    )


@dataclass
class Checker:
    """Checks verdicts against the witness rule and the known answers."""

    answers: dict
    #: Name -> the suite's network of that name (the one Reluplex ran on
    #: when its digest matches the file).
    networks: dict
    delta: float
    #: Names of suite networks whose digest differs from the file's.
    stale: list[str] = field(default_factory=list)
    compared: int = 0

    @classmethod
    def for_suite(cls, networks: dict, delta: float, path: Path = KNOWN_ANSWERS):
        payload = json.loads(Path(path).read_text())
        stale = [
            name for name, network in networks.items()
            if payload["networks"].get(name) != network_digest(network)
        ]
        return cls(payload["answers"], dict(networks), delta, stale)

    def check(self, verdict) -> str | None:
        """A description of what is wrong with ``verdict``, or None."""
        outcome, prop = verdict.outcome, verdict.prop
        kind = getattr(outcome, "kind", None)
        witness_margin = None
        if kind == "falsified":
            x = outcome.counterexample
            if not in_region(prop.region, x):
                return f"{verdict.name}: witness outside the region"
            witness_margin = float64_margin(verdict.network, x, prop.label)
            if witness_margin > self.delta + ROUNDOFF:
                return (
                    f"{verdict.name}: witness margin {witness_margin:.3g} "
                    f"> delta {self.delta:.3g}"
                )
        elif kind == "timeout":
            if outcome.reason not in DEPTH_BUDGET_REASONS:
                return f"{verdict.name}: budget {outcome.reason!r} exhausted"
        elif kind != "verified":
            return f"{verdict.name}: unknown outcome {outcome!r}"

        original = self.networks.get(verdict.network_name) is verdict.network
        if original and verdict.network_name in self.stale:
            return (
                f"{verdict.name}: network {verdict.network_name} differs from "
                f"{KNOWN_ANSWERS.name}; its known answers cannot be checked"
            )
        entry = self.answers.get(verdict.name)
        if entry is None or entry["property"] != property_digest(prop):
            return f"{verdict.name}: no known answer for this property"
        if entry["verdict"] == "unknown":
            return None
        self.compared += 1
        if kind == "verified" and entry["verdict"] == "falsified":
            x = entry["witness"]
            if in_region(prop.region, x) and (
                float64_margin(verdict.network, x, prop.label) < 0.0
            ):
                return f"{verdict.name}: verified, but Reluplex's witness holds"
        if original and kind == "falsified" and entry["verdict"] == "verified":
            if witness_margin < 0.0:
                return f"{verdict.name}: falsified, but Reluplex verified it"
        return None
