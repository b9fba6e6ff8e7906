"""Regenerate ``known_answers.json`` with the Reluplex baseline.

For every property of the benchmark's suite, the file holds the verdict
of :class:`repro.baselines.reluplex.Reluplex` (an LP branch-and-bound
procedure independent of the verifier under test) when Reluplex decides
it within the budget below, and ``unknown`` otherwise.  Falsified entries
keep Reluplex's witness so a run can re-check it.

Run from the checkout root (a few minutes on a 2-core host: 21 of the 48
properties, all on the six- and nine-layer networks, use up the Reluplex
budget)::

    python3 perfbench/make_known_answers.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.paths import add_source_paths  # noqa: E402

#: Reluplex budget per property.
TIMEOUT_S = 10.0
NODE_LIMIT = 20_000
OUT = Path(__file__).resolve().parent / "known_answers.json"


def main() -> int:
    if not add_source_paths():
        print("no repro sources next to perfbench/", file=sys.stderr)
        return 2
    from perfbench.workloads import build_suite
    from repro.baselines.reluplex import Reluplex, ReluplexConfig
    from repro.nn.serialize import network_digest
    from repro.sched.cache import property_digest

    suite = build_suite()
    tool = Reluplex(ReluplexConfig(timeout=TIMEOUT_S, node_limit=NODE_LIMIT))
    answers = {}
    for name, index, prop in suite.properties:
        started = time.perf_counter()
        outcome = tool.verify(suite.networks[name], prop)
        entry = {
            "property": property_digest(prop),
            "verdict": outcome.kind if outcome.kind != "timeout" else "unknown",
        }
        if outcome.kind == "falsified":
            entry["witness"] = [float(v) for v in outcome.counterexample]
        answers[f"{name}-b{index}"] = entry
        print(
            f"{name}-b{index}: {entry['verdict']} "
            f"({time.perf_counter() - started:.2f}s)",
            flush=True,
        )
    payload = {
        "tool": "repro.baselines.reluplex",
        "timeout_s": TIMEOUT_S,
        "node_limit": NODE_LIMIT,
        "networks": {
            name: network_digest(net) for name, net in suite.networks.items()
        },
        "answers": answers,
    }
    OUT.write_text(dump(payload))
    return 0


def dump(payload: dict) -> str:
    """The file's layout: one line per answer, witnesses included."""
    answers = payload["answers"]
    head = {k: v for k, v in payload.items() if k != "answers"}
    lines = [json.dumps(head, indent=1)[:-2] + ',\n "answers": {']
    lines.append(",\n".join(
        f"  {json.dumps(name)}: {json.dumps(entry)}"
        for name, entry in answers.items()
    ))
    lines.append(" }\n}\n")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
