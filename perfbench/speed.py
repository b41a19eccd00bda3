"""Fixed reference work that tracks how fast the host runs right now.

The benchmark runs on shared cores. Other tenants change the time of the
same work by up to a third from one minute to the next, and by a little
from one second to the next. The benchmark times reference work just
before and just after each measurement. It then scales the measurement to
what it would have been at the speed where the reference takes its nominal
time.

- For an operation, the reference is ``task``, timed in-process. It does
  the kinds of work pqc does, and never calls pqc: small tuples and frozen
  records; dict and frozenset operations, and sorting; recursion; small
  numpy max-plus products.
- For set-up, the reference is a fresh interpreter that only imports numpy
  (``PROCESS_CHILD``). Most of pqc's set-up time is that import.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = 0.003
PROCESS_NOMINAL_S = 0.15
PROCESS_CHILD = "import time\nimport numpy\nprint(time.time())\n"

_M = (np.arange(24 * 24, dtype=float).reshape(24, 24) * 7) % 11


@dataclass(frozen=True)
class _Rec:
    key: int
    name: str
    span: tuple


def _depth(n: int) -> int:
    return 0 if n == 0 else 1 + _depth(n - 1)


def task() -> int:
    recs = [_Rec(i, f"w{i}", (i, i + 1)) for i in range(1500)]
    by_name = {r.name: r for r in recs}
    ordered = sorted(recs, key=lambda r: (r.span[1] % 7, -r.key))
    post = frozenset(r.name for r in ordered[:400]) | frozenset(by_name)
    m = _M
    for _ in range(4):
        m = (m[:, :, None] + _M[None, :, :]).max(axis=1)
    return len(post) + sum(_depth(60) for _ in range(20)) + int(m[0, 0])


def probe() -> float:
    """Seconds the reference task takes now, with the collector held off."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        task()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float,
           nominal: float = NOMINAL_S) -> float:
    """``seconds`` at the host speed where the reference takes ``nominal``."""
    return seconds * nominal * 2 / (before + after)
