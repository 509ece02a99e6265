"""Packed first_noncommuting against the pairwise slice_mul scan it replaced.

``linalg.first_noncommuting`` multiplies on Kronecker-packed rows: one int
per row of a k[t] slice list, slots wide enough that no product slot spills.
The reference below is the scan it replaced: both products of every pair by
``slice_mul``, then the first row that differs.  Inputs, over F_2, F_7,
F_101, F_65537 (slots unpacked as 64-bit words), F_(2^61 - 1) (slots wider
than 64 bits, unpacked by shift and mask) and QQ (Fraction entries, and
entries and denominators wider than 64 bits):

- commuting families: k[t]-combinations of the powers of one matrix, with 1
  to 5 powers of t, d from 1 to 8, zero matrices among them, each matrix
  over QQ scaled by its own wide Fraction;
- the same with one entry changed, which moves the first violation;
- unstructured random matrices.

Both must return the same (i, k, row).  Then structure tables (quotient
algebras in a random basis, the robber family) with one mirrored entry
changed: ``validate_structure`` must raise the same NotAssociative message,
or accept, under both kernels.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, linalg, poly_ring, quotient_algebra
from gorlab.algebra import base_change, validate_structure
from gorlab.families import robber_family
from gorlab.scalar import TPoly
from gorlab.tensors import aq_algebra

from corpus import random_invertible
from test_validators import outcome

CHARACTERISTICS = (0, 2, 7, 101, 65537, 2**61 - 1)
WIDE = 2**64 + 13


def ref_first_noncommuting(mats, p):
    for i, k in combinations(range(len(mats)), 2):
        ab = linalg.slice_mul(mats[i], mats[k], p)
        ba = linalg.slice_mul(mats[k], mats[i], p)
        if ab != ba:
            return i, k, next(j for j in count() if linalg.slice_row(ab, j) != linalg.slice_row(ba, j))
    return None


def entries(p):
    if p:
        return st.integers(0, p - 1)
    return st.one_of(
        st.integers(-3, 3),
        st.integers(-(WIDE**2), WIDE**2),
        st.builds(Fraction, st.integers(-WIDE, WIDE), st.integers(1, WIDE)),
    )


def to_slices(dense, p):
    """[(s, M_s)] from a list of coefficient matrices, zero ones left out."""
    if p:
        dense = [[[x % p for x in row] for row in M] for M in dense]
    return [(s, M) for s, M in enumerate(dense) if any(map(any, M))]


@st.composite
def commuting(draw, p, d):
    """k[t]-combinations of 1, A and A² (A constant): 1 to 5 powers of t."""
    A = [[draw(entries(p)) for _ in range(d)] for _ in range(d)]
    powers = [[[int(i == j) for j in range(d)] for i in range(d)], A]
    powers.append(linalg.raw_mul(A, A, p, 0))
    S = draw(st.integers(1, 5))
    mats = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 4)) == 0:
            mats.append([])
            continue
        scale = draw(st.builds(Fraction, st.integers(1, WIDE), st.integers(1, WIDE))) if not p else 1
        dense = [[[0] * d for _ in range(d)] for _ in range(S)]
        for e, Ae in enumerate(powers):
            for s in range(S):
                c = draw(st.integers(-2, 2))
                if c:
                    dense[s] = [[x + c * y for x, y in zip(u, v)] for u, v in zip(dense[s], Ae)]
        if scale != 1:
            dense = [[[x * scale for x in row] for row in M] for M in dense]
        mats.append(to_slices(dense, p))
    return mats


@st.composite
def mutated(draw, p, d, mats):
    """mats with one entry (matrix, power, row, column) changed."""
    if not mats:
        return mats
    dense = [dict(m) for m in mats]
    n = draw(st.integers(0, len(mats) - 1))
    s, r, l = draw(st.integers(0, 4)), draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    M = [list(row) for row in dense[n].get(s, [[0] * d for _ in range(d)])]
    delta = draw(st.integers(1, p - 1)) if p else draw(entries(0).filter(bool))
    M[r][l] = M[r][l] + delta
    dense[n][s] = M
    top = 1 + max((s for D in dense for s in D), default=0)
    zero = [[0] * d for _ in range(d)]
    return [to_slices([D.get(s, zero) for s in range(top)], p) for D in dense]


@pytest.mark.parametrize("p", CHARACTERISTICS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_matches_pairwise_scan(p, data):
    d = data.draw(st.integers(1, 8))
    kind = data.draw(st.sampled_from(("commuting", "mutated", "random")))
    if kind == "random":
        mats = [to_slices([[[data.draw(entries(p)) for _ in range(d)] for _ in range(d)]
                           for _ in range(data.draw(st.integers(1, 5)))], p)
                for _ in range(data.draw(st.integers(1, 4)))]
    else:
        mats = data.draw(commuting(p, d))
        if kind == "mutated":
            mats = data.draw(mutated(p, d, mats))
    want = ref_first_noncommuting(mats, p)
    assert linalg.first_noncommuting(mats, p) == want
    if kind == "commuting":
        assert want is None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**300), st.sampled_from(CHARACTERISTICS), st.integers(1, 9), st.data())
def test_slot_width_holds_every_slot(bound, p, n, data):
    # n packed slots, each in [-bound, bound] (also at the ends), read back
    # exactly at p = 0 and mod p at p > 0; 2·bound < 2^K keeps two packed
    # rows equal only when every slot is; K is a whole word up to 64 bits
    K, read = linalg._slot_width(bound, p, n)
    slots = [data.draw(st.sampled_from((-bound, 0, bound)) | st.integers(-bound, bound))
             for _ in range(n)]
    assert read(sum(x << (K * t) for t, x in enumerate(slots))) == [x % p if p else x
                                                                   for x in slots]
    assert 2 * bound < 2**K and (K > 64 or K in {w for w, _ in linalg._WORDS})


@pytest.mark.parametrize("p", CHARACTERISTICS)
@pytest.mark.parametrize("d", [1, 3, 8])
def test_slots_at_their_bound(p, d):
    # every entry at its largest size on all 5 powers of t: a middle slot of
    # a product row then sums d·5 terms of size top², the bound itself
    top = p - 1 if p else WIDE
    full = [(s, [[top] * d for _ in range(d)]) for s in range(5)]
    low = [(s, [[top] * d for _ in range(d)]) for s in range(4)]
    low.append((4, [[top - 1 if (r, l) == (d - 1, 0) else top for l in range(d)]
                    for r in range(d)]))
    mats = [full, full, low] + ([[(s, [[-top] * d for _ in range(d)]) for s in range(5)]]
                                if not p else [])
    want = ref_first_noncommuting(mats, p)
    assert linalg.first_noncommuting(mats, p) == want
    assert want == (None if d == 1 else (0, 2, 0))


def test_all_zero_and_empty():
    assert linalg.first_noncommuting([], 0) is None
    assert linalg.first_noncommuting([[], [], []], 7) is None
    zero = [[0, 0], [0, 0]]
    assert linalg.first_noncommuting([[(0, zero)], [(3, zero)]], 2**61 - 1) is None


@lru_cache(maxsize=None)
def tables(p):
    """Structure tables (c, unit) over F_p or QQ: quotient algebras, each
    also in a random basis, and the robber family over k[t]."""
    field = GF(p) if p else QQ
    x, y = poly_ring(field, "x", "y")
    algebras = [aq_algebra(field, 2), quotient_algebra([x**4, y]),
                quotient_algebra([x**3, x * y, y**2])]
    rng = random.Random(f"packed:{p}")
    algebras += [base_change(A, random_invertible(rng, field, A.dim)) for A in algebras]
    R = robber_family(field)
    return [(A.c, A.unit, field.zero) for A in algebras] + [(R.c, R.unit, TPoly(field))]


@pytest.mark.parametrize("p", CHARACTERISTICS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_validate_structure_message_matches(p, data):
    c, unit, zero = data.draw(st.sampled_from(tables(p)))
    d = len(c)
    # one entry of row j of c[i] moved, mirrored into c[j] so that the table
    # stays commutative and associativity is what fails
    i, j, l = (data.draw(st.integers(1, d - 1)) for _ in range(3))
    if p:
        delta = data.draw(st.integers(1, p - 1))
    else:
        delta = data.draw(st.sampled_from((1, -3, Fraction(1, WIDE), WIDE)))
    field = zero.field
    delta = field.scalar(delta)
    if isinstance(zero, TPoly):
        delta = TPoly(field, [field.zero] * data.draw(st.integers(0, 3)) + [delta])
    c = [[list(row) for row in plane] for plane in c]
    c[i][j][l] = c[i][j][l] + delta
    if i != j:
        c[j][i][l] = c[j][i][l] + delta
    got = outcome(validate_structure, c, unit, zero)
    with mock.patch.object(linalg, "first_noncommuting", ref_first_noncommuting):
        assert got == outcome(validate_structure, c, unit, zero)
