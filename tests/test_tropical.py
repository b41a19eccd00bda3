import random

import numpy as np
import pytest

from generators import rng, tropical, tropical_from_lists, tropical_permutation
from pqc.algebras import ALGEBRAS
from pqc.gates import default_registry
from pqc.tropical import NEG_INF, TropicalMatrix


def random_matrix(r: random.Random, rows: int, cols: int) -> TropicalMatrix:
    data = [[NEG_INF if r.random() < 0.3 else float(r.randint(0, 9))
             for _ in range(cols)] for _ in range(rows)]
    return tropical(data, shape=(rows, cols))


def brute_matmul(a: TropicalMatrix, b: TropicalMatrix) -> list[list[float]]:
    n, k = a.shape
    _, m = b.shape
    return [[max((a.data[i][j] + b.data[j][l] for j in range(k)
                  if a.data[i][j] != NEG_INF and b.data[j][l] != NEG_INF),
                 default=NEG_INF)
             for l in range(m)] for i in range(n)]


def test_matmul_matches_brute_force():
    r = rng("tropical")
    for _ in range(100):
        n, k, m = r.randint(0, 4), r.randint(0, 4), r.randint(0, 4)
        a, b = random_matrix(r, n, k), random_matrix(r, k, m)
        assert a.matmul(b).data.tolist() == brute_matmul(a, b)


def test_matmul_associative_and_unital():
    r = rng("tropical-laws")
    for _ in range(60):
        dims = [r.randint(0, 4) for _ in range(4)]
        a = random_matrix(r, dims[0], dims[1])
        b = random_matrix(r, dims[1], dims[2])
        c = random_matrix(r, dims[2], dims[3])
        assert a.matmul(b).matmul(c) == a.matmul(b.matmul(c))
        assert TropicalMatrix.eye(dims[0]).matmul(a) == a
        assert a.matmul(TropicalMatrix.eye(dims[1])) == a


def test_zeros_annihilate():
    a = random_matrix(rng("tropical-zero"), 3, 2)
    z = TropicalMatrix.zeros(2, 4)
    assert a.matmul(z) == TropicalMatrix.zeros(3, 4)


def test_permutation_matrices_compose():
    p = tropical_permutation((2, 0, 1))
    q = tropical_permutation((1, 2, 0))
    assert p.matmul(q) == tropical_permutation((0, 1, 2))


def test_shape_checks():
    with pytest.raises(ValueError):
        TropicalMatrix.zeros(2, 2).matmul(TropicalMatrix.zeros(3, 3))
    with pytest.raises(ValueError):
        TropicalMatrix.zeros(2, 2).pointwise_max(TropicalMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        TropicalMatrix(np.zeros(3))  # 1-d rejected


def test_leq_and_max_entry():
    a = tropical([[NEG_INF, 2.0]])
    b = tropical([[0.0, 2.0]])
    assert a.leq(b) and not b.leq(a)
    assert a.max_entry() == 2.0
    assert TropicalMatrix.zeros(0, 3).max_entry() == NEG_INF


def test_tolists_round_trip():
    r = rng("tropical-json")
    for _ in range(40):
        n, m = r.randint(0, 3), r.randint(0, 3)
        a = random_matrix(r, n, m)
        assert tropical_from_lists(a.tolists(), n, m) == a


def test_immutability():
    a = TropicalMatrix.eye(2)
    with pytest.raises(ValueError):
        a.data[0, 0] = 5.0
    # then_eff builds its arrays and hands them over uncopied, read-only
    depth = ALGEBRAS["depth"]
    h = depth.gate_effect(default_registry().lookup("H"))
    t = depth.then_eff(depth.identity_effect(2), 1, h).value
    for m in (t.a, t.v, t.w):
        assert not m.data.flags.writeable
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0
    # a view is copied, so writing to its base leaves the matrix alone
    base = np.zeros((2, 2))
    view = TropicalMatrix(base[:, :1])
    base[0, 0] = 7.0
    assert view.data[0, 0] == 0.0
