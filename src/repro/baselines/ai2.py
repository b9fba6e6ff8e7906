"""The AI2 baseline: fixed-domain abstract interpretation (Gehr et al.).

AI2 runs one abstract interpretation pass with a user-specified domain and
reports Verified or Unknown — it has no counterexample search and no
refinement, which is exactly the gap Charon's Figure 6 exhibits (AI2 shows
no "falsified" bars, Charon shows no "unknown" bars).

The paper evaluates two instantiations, reproduced here as module
constants: plain zonotopes (``AI2_ZONOTOPE``) and bounded powersets of 64
zonotopes (``AI2_BOUNDED64``).  AI2 runs exactly the chosen domain's
transformer: Charon's Analyze cascade (a DeepZ screen ahead of the
zonotope split+join, DESIGN.md §15) is not part of the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abstract.analyzer import analyze
from repro.abstract.domains import DomainSpec
from repro.core.property import RobustnessProperty
from repro.nn.network import Network
from repro.utils.timing import Deadline, Stopwatch

AI2_ZONOTOPE = DomainSpec("zonotope", 1)
AI2_BOUNDED64 = DomainSpec("zonotope", 64)


@dataclass(frozen=True)
class AI2Result:
    """Outcome of one AI2 run: ``verified``, ``unknown``, or ``timeout``."""

    kind: str
    margin_lower_bound: float
    time_seconds: float

    def __bool__(self) -> bool:
        return self.kind == "verified"


class AI2:
    """One-shot abstract interpretation with a fixed domain."""

    def __init__(
        self, domain: DomainSpec = AI2_BOUNDED64, timeout: float | None = None
    ) -> None:
        self.domain = domain
        self.timeout = timeout

    def verify(self, network: Network, prop: RobustnessProperty) -> AI2Result:
        watch = Stopwatch().start()
        deadline = Deadline(self.timeout)
        try:
            result = analyze(
                network, prop.region, prop.label, self.domain, deadline,
                cascade=False,
            )
        except TimeoutError:
            return AI2Result("timeout", float("-inf"), watch.stop())
        kind = "verified" if result.verified else "unknown"
        return AI2Result(kind, result.margin_lower_bound, watch.stop())

    def describe(self) -> str:
        return f"AI2[{self.domain.short_name}]"
