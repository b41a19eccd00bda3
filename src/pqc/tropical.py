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


@dataclass(frozen=True)
class TropicalMatrix:
    """An immutable max-plus matrix (possibly with zero rows or columns)."""

    data: np.ndarray  # shape (rows, cols), dtype float

    def __post_init__(self):
        # A float array that owns its memory, as every freshly built one
        # does, is adopted without a copy: the caller hands it over, and it
        # becomes read-only. A view of another array is copied.
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"tropical matrix must be 2-d, got shape {a.shape}")
        if a.base is not None:
            a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def pointwise_max(self, other: "TropicalMatrix") -> "TropicalMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return TropicalMatrix(np.maximum(self.data, other.data))

    def leq(self, other: "TropicalMatrix") -> bool:
        """Pointwise order (−∞ below everything)."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return bool(np.all(self.data <= other.data))

    def max_entry(self) -> float:
        if self.data.size == 0:
            return NEG_INF
        return float(self.data.max())

    def __eq__(self, other) -> bool:
        return (isinstance(other, TropicalMatrix)
                and self.shape == other.shape
                and bool(np.array_equal(self.data, other.data)))

    def __hash__(self):
        return hash((self.shape, self.data.tobytes()))

    def tolists(self) -> list[list[float | str]]:
        """JSON-friendly nested lists with "-inf" sentinels."""
        return [["-inf" if x == NEG_INF else int(x) for x in row]
                for row in self.data]

