"""Packed _table_on_rows against the stacked slice_mul product it replaced.

``algebra._table_on_rows`` builds every new table (connected sums,
homotopies, ``base_change``, ``direct_product``, ``decompose_augmented``) on
Kronecker-packed rows, block by block, from raw coordinates: rows R and a
coordinate map C, each integers over its own scale.  The reference below is
the code it replaced: every block's planes stacked into a D² x D matrix,
then three rounds of ``slice_mul``.  Both must return the same (planes,
scale) over F_2, F_7, F_65537 (slots read as 64-bit words), F_(2^61 - 1)
(slots over 64 bits, read by shift and mask) and QQ (entries and
denominators over 64 bits), on R and C read from boxed values by
``raw_slices``:

- 1 to 3 blocks mixing algebras and families with up to 5 powers of t
  (random reads, which need not be associative, and the robber family);
  R with zero rows, zero columns, or no rows at all; C with TPoly entries;
- ideals of block sums, whose products lie in the row space: the
  reference on the full map [C | N] of a row solver gives zero N columns,
  and its C columns, scaled by polynomials in t, are the table;
- every entry at its largest size, so that a slot reaches its bound.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, linalg, poly_ring, quotient_algebra
from gorlab.algebra import AlgebraFamily, FiniteAlgebra, _table_on_rows, base_change, ideal_span
from gorlab.families import robber_family
from gorlab.scalar import TPoly

from corpus import random_invertible
from row_solver import RowSolver

WIDE = 2**64 + 13
FIELDS = (GF(2), GF(7), GF(65537), GF(2**61 - 1), QQ)
IDS = ("F2", "F7", "F65537", "F2^61-1", "QQ")


def ref_table_on_rows(field, tables, R, L_R, C, L_C):
    if not R:
        return [], 1
    p = field.characteristic
    n, D, w = len(R), sum(t.dim for t in tables), len(C[0][1][0]) if C else 0
    R = [(0, R)]
    Lc = lcm(*(t.raw[1] for t in tables))
    # row i*D + j of stack[s] is e_i e_j in ambient coordinates, zero across blocks
    stack, o = {}, 0
    for t in tables:
        (*planes, _), Lt = t.raw
        d, f = t.dim, Lc // Lt
        for i, plane in enumerate(planes):
            for s, X in plane:
                rows = stack.setdefault(s, [[0] * D] * (D * D))
                for j, row in enumerate(X):
                    rows[(o + i) * D + o + j] = [0] * o + [x * f for x in row] + [0] * (D - o - d)
        o += d
    # row i of F is plane i times C, flattened; row a of RF is sum_i R[a][i] F[i]
    F = [(s, [list(chain(*X[i * D:(i + 1) * D])) for i in range(D)])
         for s, X in linalg.slice_mul(sorted(stack.items()), C, p)]
    RF = linalg.slice_mul(R, F, p)
    planes = []
    for a in range(n):
        plane = [(s, [X[a][j * w:(j + 1) * w] for j in range(D)]) for s, X in RF]
        Z = linalg.slice_mul(R, plane, p)
        planes.append([(s, X) for s, X in Z if any(map(any, X))])
    return planes, L_R**2 * L_C * Lc


def read(field, R, M):
    """R (a constant matrix) and M (entries in k[t]) as the raw coordinates
    _table_on_rows takes: R's rows and its scale, M's slice list and its."""
    p = field.characteristic
    (Rs,), L_R = linalg.raw_slices([R], p)
    (C,), L_C = linalg.raw_slices([M], p)
    return dict(Rs).get(0, [[0] * len(M)] * len(R)), L_R, C, L_C


def result(fn, *args):
    """fn(*args), or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as ex:  # noqa: BLE001 - any difference is a failure
        return type(ex), str(ex)


def raw(rng, p, zeros=0.5):
    """A raw table entry: an int mod p, or at p = 0 a small or wide int."""
    if rng.random() < zeros:
        return 0
    if p:
        return rng.randrange(p)
    return rng.choice((rng.randint(-3, 3), rng.randint(-WIDE**2, WIDE**2)))


def value(rng, field, zeros=0.5):
    """A field value; over QQ also a Fraction with a wide denominator."""
    x = raw(rng, field.characteristic, zeros)
    if x and not field.characteristic and rng.random() < 0.5:
        x = Fraction(x, rng.choice((3, WIDE)))
    return field.scalar(x)


def tpoly(rng, field, powers, zeros=0.5):
    return TPoly(field, [value(rng, field, zeros) for _ in range(powers)])


def random_table(rng, field, family):
    """A read with random raw planes over a random scale: an algebra, or a
    family with up to 5 powers of t.  It need not be associative:
    _table_on_rows only multiplies."""
    p, d = field.characteristic, rng.randint(1, 4)
    S = rng.randint(1, 5) if family else 1
    scale = 1 if p else rng.choice((1, 6, WIDE))
    planes = []
    for _ in range(d):
        dense = [[[raw(rng, p, 0.6) for _ in range(d)] for _ in range(d)] for _ in range(S)]
        planes.append([(s, X) for s, X in enumerate(dense) if any(map(any, X))])
    cls = AlgebraFamily if family else FiniteAlgebra
    return cls.on_read(planes, scale, field, [f"e{i}" for i in range(d)], validate=False)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_matches_stacked(field, data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    tables = [robber_family(field) if kind == "robber" else random_table(rng, field, kind == "family")
              for kind in data.draw(st.lists(st.sampled_from(("algebra", "family", "robber")),
                                             min_size=1, max_size=3))]
    D = sum(t.dim for t in tables)
    zero_col = data.draw(st.sampled_from((None, *range(D))))
    R = [[field.zero] * D if rng.random() < 0.2 else
         [field.zero if l == zero_col else value(rng, field) for l in range(D)]
         for _ in range(data.draw(st.integers(0, 4)))]
    w, powers = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    M = [[tpoly(rng, field, powers) for _ in range(w)] for _ in range(D)]
    args = read(field, R, M)
    want = result(ref_table_on_rows, field, tables, *args)
    assert result(_table_on_rows, field, tables, *args) == want


@lru_cache(maxsize=None)
def algebras(field):
    """Quotient algebras on a monomial basis and in a random basis."""
    x, y = poly_ring(field, "x", "y")
    out = [quotient_algebra([x**3, x * y, y**2]), quotient_algebra([x**4, y])]
    rng = random.Random(f"tables:{field}")
    return out + [base_change(A, random_invertible(rng, field, A.dim)) for A in out]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_ideal_rows_pass_their_checks(field, data):
    # the sum of an ideal of each block is an ideal of the block sum, so
    # every product lies in the row space; the robber's ideal is (x), on
    # the basis vectors of x, x^2 and x^3
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    blocks = data.draw(st.lists(st.sampled_from((None, *algebras(field))), min_size=1, max_size=3))
    tables = [robber_family(field) if A is None else A for A in blocks]
    D, o, R = sum(t.dim for t in tables), 0, []
    for t in tables:
        if isinstance(t, AlgebraFamily):
            rows = [tuple(field.one if l == i else field.zero for l in range(4)) for i in (1, 2, 3)]
        else:
            rows = ideal_span(t, [[value(rng, field) for _ in range(t.dim)]]).rows
        R += [(field.zero,) * o + tuple(r) + (field.zero,) * (D - o - t.dim) for r in rows]
        o += t.dim
    if not R:
        return
    scales = [tpoly(rng, field, data.draw(st.integers(1, 3)), 0.3) or TPoly(field, [1])
              for _ in range(D)]
    M = [[x * q for x, q in zip(row, scales)] for row in RowSolver(field, R).map]
    full = ref_table_on_rows(field, tables, *read(field, R, M))
    # products of the rows lie in their span: the N columns vanish
    assert not any(x for pl in full[0] for _, X in pl for row in X for x in row[len(R):])
    args = read(field, R, [row[:len(R)] for row in M])
    got = _table_on_rows(field, tables, *args)
    assert got == ref_table_on_rows(field, tables, *args)
    assert values(field, *got) == values(field, [[(s, [row[:len(R)] for row in X]) for s, X in pl]
                                                  for pl in full[0]], full[1])


def values(field, planes, scale):
    """The nonzero entries a raw table stands for, by plane, power, row and column."""
    def value(x):
        return x if field.characteristic else Fraction(x, scale)

    return [{(s, b, k): value(x) for s, X in pl for b, row in enumerate(X)
             for k, x in enumerate(row) if x} for pl in planes]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("S", [1, 3, 5])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("first", [FiniteAlgebra, AlgebraFamily])
def test_slots_at_their_bound(field, S, sign, first):
    # every entry at its largest size, on every power of t: with two
    # families, the middle slot of a product row sums (sum of d³)·S terms
    # of size top⁴, the bound itself (at p = 0 with either sign)
    p = field.characteristic
    top = p - 1 if p else WIDE

    def planes(d, S):
        return [[(s, [[top] * d for _ in range(d)]) for s in range(S)] for _ in range(d)]

    tables = [first.on_read(planes(2, S if first is AlgebraFamily else 1), 1, field, "ab",
                            validate=False),
              AlgebraFamily.on_read(planes(3, S), 1, field, "cde", validate=False)]
    R = [[field.scalar(top)] * 5 for _ in range(4)]
    M = [[TPoly(field, [sign * top] * S)] * 4 for _ in range(5)]
    args = read(field, R, M)
    want = ref_table_on_rows(field, tables, *args)
    assert _table_on_rows(field, tables, *args) == want
    if not p:
        assert all(len(pl) == 2 * S - 1 for pl in want[0])


def test_no_rows_and_zero_rows():
    A = algebras(GF(7))[0]
    C = [(0, [[int(i == j) for j in range(A.dim)] for i in range(A.dim)])]
    assert _table_on_rows(GF(7), [A], [], 1, C, 1) == ([], 1)
    zero = [[0] * A.dim] * 2
    assert _table_on_rows(GF(7), [A], zero, 1, C, 1) == ref_table_on_rows(GF(7), [A], zero, 1, C, 1)
    assert _table_on_rows(GF(7), [A], zero, 1, C, 1) == ([[], []], 1)
