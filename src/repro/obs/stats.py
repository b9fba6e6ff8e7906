"""Summaries and diffs of trace/metrics dumps (the ``repro stats`` verb).

A dump is the JSON file ``--trace out.json`` writes: a Chrome
trace-event object whose ``otherData.metrics`` member carries the
run's metrics snapshot (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`).
This module reads those files back:

- :func:`validate_trace` checks the schema (what the CI smoke gates on),
- :func:`summarize_dump` renders counters, histograms, and per-span
  totals as text,
- :func:`diff_dumps` compares two dumps counter by counter, span by
  span, and histogram by histogram — the "did this PR move the needle"
  view.

The ``sched.netabs.*`` counter family (the abstraction pre-pass) gets a
dedicated summary section, including the refinement-rounds-to-accept
histogram, and so does the ``sched.prefix.*`` family (incremental
re-verification: checkpoint hits, layers skipped vs suffix layers run).
"""

from __future__ import annotations

import json

__all__ = [
    "load_dump",
    "validate_trace",
    "span_totals",
    "summarize_dump",
    "diff_dumps",
]

#: Event phases a dump may legally contain ("X" complete, "i" instant).
_KNOWN_PHASES = ("X", "i")


def load_dump(path: str) -> dict:
    """Parse one trace/metrics dump file."""
    with open(path) as handle:
        return json.load(handle)


def validate_trace(payload: dict) -> list[str]:
    """Schema errors of a trace dump (empty list = valid).

    Checks the Chrome trace-event contract this repo emits: a
    ``traceEvents`` list of events each carrying ``name``/``ph``/``ts``/
    ``pid``/``tid`` (with a non-negative ``dur`` on complete events),
    plus an ``otherData.metrics.counters`` dict.  Returns messages
    instead of raising so callers can report every problem at once.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["dump is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        errors.append("missing traceEvents list")
        events = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {i} is not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                errors.append(f"event {i} ({event.get('name')!r}) lacks {key!r}")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            errors.append(f"event {i} has unknown phase {phase!r}")
        if not isinstance(event.get("ts", 0), (int, float)):
            errors.append(f"event {i} has non-numeric ts")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                errors.append(f"event {i} has bad dur {duration!r}")
    other = payload.get("otherData")
    if not isinstance(other, dict):
        errors.append("missing otherData object")
    else:
        metrics = other.get("metrics")
        if not isinstance(metrics, dict) or not isinstance(
            metrics.get("counters"), dict
        ):
            errors.append("otherData.metrics.counters is missing")
    return errors


def span_totals(payload: dict) -> dict[str, dict]:
    """Per-span-name aggregates over a dump's complete events.

    Maps span name to ``{"count", "total_ms", "max_ms"}`` (durations in
    milliseconds).
    """
    totals: dict[str, dict] = {}
    for event in payload.get("traceEvents", []):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        name = str(event.get("name"))
        duration_ms = float(event.get("dur", 0)) / 1000.0
        entry = totals.setdefault(
            name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
        )
        entry["count"] += 1
        entry["total_ms"] += duration_ms
        entry["max_ms"] = max(entry["max_ms"], duration_ms)
    return totals


def _counters(payload: dict) -> dict[str, float]:
    other = payload.get("otherData") or {}
    metrics = other.get("metrics") or {}
    counters = metrics.get("counters") or {}
    return {str(k): v for k, v in counters.items()}


def _histograms(payload: dict) -> dict[str, dict]:
    other = payload.get("otherData") or {}
    metrics = other.get("metrics") or {}
    return dict(metrics.get("histograms") or {})


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4f}"
    return str(int(value))


#: The abstraction pre-pass counter family, rendered as its own section
#: (one line per outcome class reads far better than interleaving them
#: with the kernel counters).
_NETABS_PREFIX = "sched.netabs."


def _netabs_section(
    counters: dict[str, float], histograms: dict[str, dict]
) -> list[str]:
    """The ``sched.netabs.*`` family as a dedicated summary block."""
    family = {
        name[len(_NETABS_PREFIX):]: counters[name]
        for name in counters
        if name.startswith(_NETABS_PREFIX)
    }
    rounds = histograms.get(_NETABS_PREFIX + "rounds_to_accept")
    if not family and not rounds:
        return []
    lines = ["netabs (abstraction pre-pass):"]
    order = (
        "jobs", "verified", "falsified", "spurious", "timeout",
        "fallback", "unsupported", "refinements",
    )
    known = [name for name in order if name in family]
    extra = sorted(set(family) - set(order))
    if known or extra:
        lines.append(
            "  " + "  ".join(
                f"{name} {_fmt(family[name])}" for name in known + extra
            )
        )
    if rounds:
        lines.append(
            f"  rounds-to-accept: n={rounds.get('count', 0)} "
            f"mean={float(rounds.get('mean', 0.0)):.2f} "
            f"max={_fmt(float(rounds.get('max', 0.0)))}"
        )
    return lines


#: The incremental re-verification counter family (prefix checkpoints).
_PREFIX_PREFIX = "sched.prefix."


def _prefix_section(counters: dict[str, float]) -> list[str]:
    """The ``sched.prefix.*`` family as a dedicated summary block."""
    family = {
        name[len(_PREFIX_PREFIX):]: counters[name]
        for name in counters
        if name.startswith(_PREFIX_PREFIX)
    }
    if not family:
        return []
    lines = ["prefix (incremental re-verification):"]
    order = (
        "hits", "misses", "puts", "put_errors",
        "layers_skipped", "suffix_layers_run",
    )
    known = [name for name in order if name in family]
    extra = sorted(set(family) - set(order))
    lines.append(
        "  " + "  ".join(
            f"{name} {_fmt(family[name])}" for name in known + extra
        )
    )
    return lines


#: The Analyze cascade's screen counters (DESIGN.md §15).
_SCREEN_COUNTERS = ("kernel.screen_rows", "kernel.screen_verified")


def _screen_section(counters: dict[str, float]) -> list[str]:
    """How many Analyze rows the one-pass DeepZ screen saw and proved."""
    rows, verified = (counters.get(name, 0) for name in _SCREEN_COUNTERS)
    if not rows:
        return []
    return [
        "analyze screen (one-pass DeepZ before split+join):",
        f"  kernel.screen_rows {_fmt(rows)}  kernel.screen_verified "
        f"{_fmt(verified)} ({100.0 * verified / rows:.1f}% final)",
    ]


def summarize_dump(payload: dict, top: int = 20) -> str:
    """A text summary of one dump: spans, counters, histograms."""
    lines: list[str] = []
    totals = span_totals(payload)
    if totals:
        lines.append("spans (by total time):")
        ranked = sorted(
            totals.items(), key=lambda kv: kv[1]["total_ms"], reverse=True
        )
        for name, entry in ranked[:top]:
            lines.append(
                f"  {name:<28} x{entry['count']:<6} "
                f"total {entry['total_ms']:9.2f}ms  "
                f"max {entry['max_ms']:8.2f}ms"
            )
    counters = _counters(payload)
    lines.extend(_netabs_section(counters, _histograms(payload)))
    lines.extend(_prefix_section(counters))
    screen = _screen_section(counters)
    lines.extend(screen)
    generic = {
        name: value
        for name, value in counters.items()
        if not name.startswith((_NETABS_PREFIX, _PREFIX_PREFIX))
        and not (screen and name in _SCREEN_COUNTERS)
    }
    if generic:
        lines.append("counters:")
        for name in sorted(generic):
            lines.append(f"  {name:<36} {_fmt(generic[name])}")
    histograms = _histograms(payload)
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            entry = histograms[name]
            lines.append(
                f"  {name:<36} n={entry.get('count', 0)} "
                f"mean={float(entry.get('mean', 0.0)):.6f} "
                f"max={float(entry.get('max', 0.0)):.6f}"
            )
    if not lines:
        lines.append("(empty dump: no spans, counters, or histograms)")
    return "\n".join(lines)


def diff_dumps(baseline: dict, candidate: dict, top: int = 20) -> str:
    """Counter and span deltas of ``candidate`` relative to ``baseline``."""
    lines: list[str] = []
    base_counters = _counters(baseline)
    cand_counters = _counters(candidate)
    changed = []
    for name in sorted(set(base_counters) | set(cand_counters)):
        before = base_counters.get(name, 0)
        after = cand_counters.get(name, 0)
        if before != after:
            changed.append((name, before, after))
    if changed:
        lines.append("counters (baseline -> candidate):")
        for name, before, after in changed:
            lines.append(
                f"  {name:<36} {_fmt(before)} -> {_fmt(after)} "
                f"({after - before:+g})"
            )
    else:
        lines.append("counters: identical")
    base_spans = span_totals(baseline)
    cand_spans = span_totals(candidate)
    deltas = []
    for name in set(base_spans) | set(cand_spans):
        before = base_spans.get(name, {}).get("total_ms", 0.0)
        after = cand_spans.get(name, {}).get("total_ms", 0.0)
        if before != after:
            deltas.append((abs(after - before), name, before, after))
    if deltas:
        lines.append("spans (total ms, baseline -> candidate):")
        for _, name, before, after in sorted(deltas, reverse=True)[:top]:
            lines.append(
                f"  {name:<28} {before:9.2f} -> {after:9.2f} "
                f"({after - before:+.2f})"
            )
    base_hists = _histograms(baseline)
    cand_hists = _histograms(candidate)
    hist_lines = []
    for name in sorted(set(base_hists) | set(cand_hists)):
        before = base_hists.get(name) or {}
        after = cand_hists.get(name) or {}
        fields = []
        for field, fmt in (("count", "g"), ("mean", ".4f"), ("max", "g")):
            b = float(before.get(field, 0.0))
            a = float(after.get(field, 0.0))
            if b != a:
                fields.append(f"{field} {b:{fmt}} -> {a:{fmt}}")
        if fields:
            hist_lines.append(f"  {name:<36} " + ", ".join(fields))
    if hist_lines:
        lines.append("histograms (baseline -> candidate):")
        lines.extend(hist_lines)
    return "\n".join(lines)
