"""Max-plus (tropical) matrices over ℕ ∪ {−∞}.

Addition is ``max``, multiplication is ``+``, the additive unit is −∞ and
the multiplicative unit 0. Matrix product therefore computes maximum path
weights: ``(A ⊙ B)[i,k] = max_j (A[i,j] + B[j,k])``.

Backed by float numpy arrays (−∞ as ``-inf``); all finite entries are
integers and compare exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")


def maxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The max-plus product of plain arrays (−∞ over an empty inner dimension)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} ⊙ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return np.full((a.shape[0], b.shape[1]), NEG_INF)
    # entries are −∞ or finite, so no sum is −∞ + ∞
    return (a[:, :, None] + b[None, :, :]).max(axis=1)


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
