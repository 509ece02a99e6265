"""The raw read that a table's object keeps, and that consumers use alone.

``FiniteAlgebra``, ``AlgebraFamily`` and ``Tensor3`` hold one read of their
table from construction, ``raw = ([*plane slices, unit slices], L)``.
Constructors that build a table on raw slices hand theirs over and the
object boxes it on first read of ``c`` (``entries``); the public
constructors read the boxed table they are given.  The first tests check
every read against the boxed table: each raw value v over L is the boxed
entry (or its coefficient of t^s), over QQ and F_7 on corpus samples.  A
wrong scale shows here.  The last test checks that the consumers of a built
object read no table again: neither ``linalg.raw_slices`` nor
``linalg.unbox`` sees a d x d x d table, and the boxed table itself is
never touched.
"""

import random
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest

from gorlab import GF, QQ, linalg, quotient_algebra
from gorlab.algebra import (
    AlgebraFamily,
    FiniteAlgebra,
    annihilator,
    base_change,
    direct_product,
    ideal_span,
)
from gorlab.families import homotopy_families, scale_multiplication_family
from gorlab.frobenius import (
    NonUnitalOriented,
    OrientedAlgebra,
    augmentation_check,
    b_phi,
    connected_sum,
    decompose_augmented,
    gorenstein_test,
    rees_family,
)
from gorlab.poly import MultiPoly
from gorlab.scalar import TPoly
from gorlab.tensors import (
    aq_algebra,
    cw_tensor,
    degeneration_to_cw,
    one_generic,
    strassen_commuting,
    structure_tensor,
    Tensor3,
)

from corpus import build_corpus, random_invertible

FIELDS = (QQ, GF(7))


@lru_cache(maxsize=None)
def corpus(field):
    return build_corpus(field, 8, seed=4)


def coefficients(x):
    """The coefficient list of a Scalar or TPoly, low degree first, no
    trailing zeros."""
    if isinstance(x, TPoly):
        return list(x.coeffs)
    return [x] if x else []


def assert_read_matches(obj):
    """Every value of obj's read, over its scale, is the boxed entry."""
    (*planes, unit), L = obj.raw
    f = obj.field
    p = f.characteristic
    table = obj.entries if hasattr(obj, "entries") else obj.c
    boxed_unit = getattr(obj, "unit", None)
    assert isinstance(L, int) and L > 0 and (L == 1 or not p)
    assert len(planes) == len(table)
    for slices, boxed in [*zip(planes, table), (unit, [boxed_unit or ()])]:
        powers = [s for s, _ in slices]
        assert powers == sorted(set(powers))
        rows, cols = len(boxed), len(boxed[0]) if boxed else 0
        for s, X in slices:
            assert any(map(any, X)) and len(X) == rows
            assert all(len(r) == cols and all(type(v) is int for v in r) for r in X)
            assert not p or all(0 <= v < p for r in X for v in r)
        for b in range(rows):
            for k in range(cols):
                raw = {s: X[b][k] for s, X in slices if X[b][k]}
                top = max(raw, default=-1)
                want = [f.scalar(Fraction(raw.get(s, 0), L)) for s in range(top + 1)]
                assert want == coefficients(boxed[b][k]), (b, k)
    if boxed_unit is None:
        assert unit == []


def presentations(field):
    names = ("x", "y")
    x, y = (MultiPoly(field, names, {m: 1}) for m in ((1, 0), (0, 1)))
    half = field.scalar(Fraction(1, 2))
    third = field.scalar(Fraction(1, 3))
    return [
        [x * x - y * y * half, x * y, y * y * y],
        [x * x * x - x * third, y * y - x * half],
    ]


def handed_over(field):
    """Objects from every constructor that hands its read over."""
    out = []
    for i, t in enumerate(corpus(field)):
        A = t.algebra
        out.append(A)  # base_change, in the corpus
        out.append(base_change(A, random_invertible(random.Random(i), field, A.dim)))
        out.append(connected_sum(t, corpus(field)[(i + 1) % 8]).algebra)
        dec = decompose_augmented(t.oa, t.e)
        out.append(dec.nonunital.algebra)
        out.append(direct_product(A, dec.nonunital.algebra))
        out.append(structure_tensor(A))
        hf = homotopy_families(t)
        lam = t.oa.phi_of(A.unit)
        phi0 = [a - lam * b for a, b in zip(t.oa.phi, t.e)]
        fams = [hf.h_const, hf.h_mv, rees_family(OrientedAlgebra(A, phi0)).family,
                degeneration_to_cw(t).family, scale_multiplication_family(dec.nonunital)]
        out += fams
        for F in fams:
            for value in (0, 1, 3, Fraction(-2, 5) if not field.characteristic else 4):
                out.append(F.at(value, validate=False))
    out += [quotient_algebra(gens) for gens in presentations(field)]
    out.append(aq_algebra(field, 3))
    return out


def _refuse_reads(*a, **k):
    raise AssertionError("a table was read after construction")


def assert_held(obj):
    """obj holds its read: taking ``raw`` reads nothing, and the read
    stands for the boxed table."""
    with mock.patch.object(linalg, "raw_slices", _refuse_reads):
        obj.raw
    assert_read_matches(obj)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_handed_over_reads_stand_for_the_boxed_tables(field):
    for obj in handed_over(field):
        assert_held(obj)
    t = corpus(field)[0]
    hf = homotopy_families(t)
    # the two homotopies share the raw planes of one table, and each boxes
    # it once, to equal tables
    assert all(a is b for a, b in zip(hf.h_mv.raw[0][:-1], hf.h_const.raw[0][:-1]))
    assert hf.h_mv.c is hf.h_mv.c and hf.h_mv.c == hf.h_const.c


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_boxed_tables_keep_one_object_per_value(field):
    """A table boxed from its raw planes (a constant table keyed on the raw
    value, a k[t] table on its (power, value) pairs) holds one object per
    value: equal entries are the same Scalar or TPoly."""
    for i, t in enumerate(corpus(field)[:4]):
        A = t.algebra
        dec = decompose_augmented(t.oa, t.e)
        hf = homotopy_families(t)
        objs = [base_change(A, random_invertible(random.Random(i), field, A.dim)),
                direct_product(A, dec.nonunital.algebra), dec.nonunital.algebra,
                connected_sum(t, corpus(field)[i + 1]).algebra, hf.h_mv, hf.h_mv.at(3, validate=False)]
        for obj in objs:
            seen = {}
            for x in (x for plane in obj.c for row in plane for x in row):
                assert seen.setdefault(tuple(c.value for c in coefficients(x)), x) is x
            assert len(seen) < obj.dim ** 3 or obj.dim < 2


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_public_constructors_read_at_construction(field):
    t = corpus(field)[3]
    A = t.algebra
    objs = [Tensor3(field, A.c), Tensor3.from_support(field, (2, 1, 3), [(1, 0, 2, 5)]),
            cw_tensor(field, 3), Tensor3(field, [])]
    for validate in (False, True):
        objs += [AlgebraFamily(field, A.labels, A.c, A.unit, validate=validate),
                 FiniteAlgebra(field, A.labels, A.c, A.unit, validate=validate),
                 FiniteAlgebra(field, A.labels, A.c, None, validate=validate)]
    for obj in objs:
        assert_held(obj)


class _Untouchable(tuple):
    """A stand-in for a boxed table that no consumer may read."""

    def _refuse(self, *a, **k):
        raise AssertionError("the boxed table was read")

    __iter__ = __getitem__ = __len__ = _refuse


def _largest_reads(fn, *args):
    """fn(*args), and the largest number of entries that one raw_slices or
    unbox call read while it ran."""
    sizes = [0]
    raw_slices, unbox = linalg.raw_slices, linalg.unbox

    def counted_slices(mats, p):
        sizes.append(sum(len(row) for m in mats for row in m))
        return raw_slices(mats, p)

    def counted_unbox(m, field=None):
        sizes.append(sum(len(row) for row in m))
        return unbox(m, field)

    with mock.patch.object(linalg, "raw_slices", counted_slices), \
            mock.patch.object(linalg, "unbox", counted_unbox):
        out = fn(*args)
    return out, max(sizes)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_consumers_read_no_table_again(field):
    for t in corpus(field):
        d = t.algebra.dim
        if d < 3:
            continue
        # fresh objects, each read once at construction
        A = FiniteAlgebra(field, t.algebra.labels, t.algebra.c, t.algebra.unit)
        nu = decompose_augmented(t.oa, t.e).nonunital
        T, cw = structure_tensor(A), cw_tensor(field, d - 2)
        J = ideal_span(A, [[field.one if i == d - 1 else field.zero for i in range(d)]])
        for obj in (A, nu.algebra, T, cw):
            object.__setattr__(obj, "_c", _Untouchable())
        calls = [
            (gorenstein_test, A),
            (b_phi, A, t.oa.phi),
            (augmentation_check, A, t.e),
            (annihilator, A, J),
            (NonUnitalOriented, nu.algebra, nu.form),
            (one_generic, T),
            (strassen_commuting, T, A.unit),
            (one_generic, cw),
            (strassen_commuting, cw, [1] + [0] * (d - 1)),
        ]
        for fn, *args in calls:
            _, largest = _largest_reads(fn, *args)
            # vectors, Gram matrices and [M | I] read at most 2 d^2 entries
            assert largest < d**3, (fn.__name__, d, largest)
