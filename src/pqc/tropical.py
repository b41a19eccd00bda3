"""Max-plus (tropical) matrices over ℕ ∪ {−∞}.

Addition is ``max``, multiplication is ``+``, the additive unit is −∞ and
the multiplicative unit 0, so an entry is a maximum path weight. ``depth``
effects are such matrices (``algebras.DepthTriple``), and ``TropicalMatrix``
is how their parts are rendered.

Backed by float numpy arrays (−∞ as ``-inf``); all finite entries are
integers and compare exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True, eq=False)
class TropicalMatrix:
    """A read-only copy of a max-plus matrix: how ``DepthTriple`` renders
    its A, v and w."""

    data: np.ndarray  # shape (rows, cols), dtype float

    def __post_init__(self):
        a = np.array(self.data, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"tropical matrix must be 2-d, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        return isinstance(other, TropicalMatrix) and np.array_equal(self.data, other.data)
