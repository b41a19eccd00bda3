import random

import numpy as np
import pytest

from generators import Q, depth_triple, rng, tropical_permutation
from oracles import maxplus
from pqc.algebras import ALGEBRAS, Effect, depth_bound
from pqc.circuits import Circuit, Layer, Perm
from pqc.gates import default_registry
from pqc.tropical import NEG_INF, TropicalMatrix


def random_array(r: random.Random, rows: int, cols: int) -> np.ndarray:
    return np.array([[NEG_INF if r.random() < 0.3 else float(r.randint(0, 9))
                      for _ in range(cols)] for _ in range(rows)]).reshape(rows, cols)


def eye(n: int) -> np.ndarray:
    """The max-plus identity: 0 on the diagonal, −∞ elsewhere."""
    return tropical_permutation(tuple(range(n))).data


def brute_maxplus(a: np.ndarray, b: np.ndarray) -> list[list[float]]:
    n, k = a.shape
    _, m = b.shape
    return [[max((a[i][j] + b[j][l] for j in range(k)
                  if a[i][j] != NEG_INF and b[j][l] != NEG_INF),
                 default=NEG_INF)
             for l in range(m)] for i in range(n)]


def test_maxplus_matches_brute_force():
    r = rng("tropical")
    for _ in range(100):
        n, k, m = r.randint(0, 4), r.randint(0, 4), r.randint(0, 4)
        a, b = random_array(r, n, k), random_array(r, k, m)
        assert maxplus(a, b).tolist() == brute_maxplus(a, b)


def test_maxplus_associative_and_unital():
    r = rng("tropical-laws")
    for _ in range(60):
        dims = [r.randint(0, 4) for _ in range(4)]
        a = random_array(r, dims[0], dims[1])
        b = random_array(r, dims[1], dims[2])
        c = random_array(r, dims[2], dims[3])
        assert np.array_equal(maxplus(maxplus(a, b), c), maxplus(a, maxplus(b, c)))
        assert np.array_equal(maxplus(eye(dims[0]), a), a)
        assert np.array_equal(maxplus(a, eye(dims[1])), a)


def test_zeros_annihilate():
    a = random_array(rng("tropical-zero"), 3, 2)
    assert np.array_equal(maxplus(a, np.full((2, 4), NEG_INF)),
                          np.full((3, 4), NEG_INF))


def test_permutation_matrices_compose():
    p = tropical_permutation((2, 0, 1))
    q = tropical_permutation((1, 2, 0))
    assert np.array_equal(maxplus(p.data, q.data), eye(3))


def test_shape_checks():
    with pytest.raises(ValueError):
        maxplus(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        TropicalMatrix(np.zeros(3))  # 1-d rejected


def test_depth_leq_and_bound():
    # −∞ lies below every entry, in both directions of the order
    depth = ALGEBRAS["depth"]
    a = Effect(1, 1, depth_triple([[NEG_INF]], [2.0], [0.0]))
    b = Effect(1, 1, depth_triple([[0.0]], [2.0], [0.0]))
    c = Effect(1, 1, depth_triple([[0.0]], [NEG_INF], [0.0]))
    assert depth.leq(a, b) and not depth.leq(b, a)
    assert depth.leq(c, b) and not depth.leq(b, c)
    assert not depth.leq(a, c) and not depth.leq(c, a)
    assert depth_bound(a) == 2.0
    assert depth_bound(depth.identity_effect(0)) == NEG_INF  # no wires, no paths


def test_depth_value_json_round_trip():
    depth = ALGEBRAS["depth"]
    r = rng("tropical-json")

    def read(x):
        return NEG_INF if x == "-inf" else x

    for _ in range(40):
        n, m = r.randint(0, 3), r.randint(0, 3)
        t = depth_triple(random_array(r, n, m), random_array(r, 1, n)[0],
                         random_array(r, 1, m)[0])
        doc = depth.value_json(Effect(n, m, t))
        assert all(type(x) is int or x == "-inf"
                   for x in doc["v"] + doc["w"] + sum(doc["A"], []))
        assert depth_triple([list(map(read, row)) for row in doc["A"]],
                            list(map(read, doc["v"])), list(map(read, doc["w"]))) == t


def test_immutability():
    a = tropical_permutation((0, 1))
    with pytest.raises(ValueError):
        a.data[0, 0] = 5.0
    # the fold's frozen matrix and an abstracted circuit's are read-only,
    # and so are the A, v and w rendered from them
    depth, reg = ALGEBRAS["depth"], default_registry()
    fold = depth.fold((Q, Q))
    fold.place(fold.wires[1:], depth.gate_effect(reg.lookup("H")))
    c = Circuit((Q, Q), (Layer(((reg.gate("H"), 0),)), Perm((1, 0)),
                         Layer(((reg.gate("CNOT"), 0),))))
    for e in (fold.freeze(fold.wires), depth.abstract(c, reg)):
        t = e.value
        for m in (t.m, t.a.data, t.v.data, t.w.data):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 5.0
    # a rendering is a copy, so writing to its source leaves it alone
    base = np.zeros((2, 2))
    view = TropicalMatrix(base[:, :1])
    base[0, 0] = 7.0
    assert view.data[0, 0] == 0.0
