"""Import trcalc from the checkout the benchmark sits in, never from an
installed copy, so that a run always measures the tree under test."""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_checkout_trcalc() -> None:
    """Put ``<checkout>/src`` first on sys.path and import trcalc from it.

    Exits with a message (status 1) when the checkout holds no trcalc
    package or when a different copy gets imported.
    """
    package = SRC / "trcalc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no trcalc package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import trcalc
    import trcalc.cli  # noqa: F401  (part of what a CLI user pays at start-up)

    if Path(trcalc.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported trcalc from {trcalc.__file__}, expected {package}")
