"""Make a tool import the package of the checkout it lives in."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use_checkout() -> None:
    """Import this checkout's package, here and in Ray workers."""
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
