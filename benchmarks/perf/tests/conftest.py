"""Make ``harness`` (and ``repro``) importable when the tests run by path."""

import sys
from pathlib import Path

_PERF = Path(__file__).resolve().parents[1]
for path in (_PERF, _PERF.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
