"""Import-path set-up shared by the benchmark's scripts.

The benchmark runs from a source checkout with no install step, so its
scripts put the checkout's ``src`` directory and the checkout root (for
the ``perfbench`` package itself) on ``sys.path``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_source_paths() -> bool:
    """Put ``src`` and the checkout root first on ``sys.path``.

    Returns False when the checkout holds no ``repro`` sources.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True
