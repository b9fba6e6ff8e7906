"""Gradient-based counterexample search (the optimization half of Charon).

- :mod:`repro.attack.objective` — the margin objective ``F`` (Eq. 2).
- :mod:`repro.attack.pgd` — projected gradient descent over box regions.
- :mod:`repro.attack.search` — the ``Minimize`` step of Algorithm 1.
"""

from repro.attack.objective import MarginObjective
from repro.attack.pgd import PGDConfig, pgd_minimize, pgd_minimize_batch
from repro.attack.search import SearchResult, find_counterexample

__all__ = [
    "MarginObjective",
    "PGDConfig",
    "pgd_minimize",
    "pgd_minimize_batch",
    "SearchResult",
    "find_counterexample",
]
