"""Tables are boxed on first read of ``c`` (``Tensor3.entries``), not at
construction.

Every constructor that builds a table on raw planes hands them to
``on_read``; the object boxes them through ``algebra._box_plane`` only when
``c`` is first read, and keeps the result.  For each such constructor over
QQ and F_7: no plane of the object's read is boxed until ``c`` is read (a
fiber's unit or a family's Gram matrix may be); the first read boxes each
plane of the read once, in order, and the table equals an eager ``_box_plane`` of the planes handed
to ``on_read``, with the same value types; the second read returns the
same object.  Equality and hashing do not see whether an algebra was
boxed at construction or on first read.  Validation on the read still
hands ``validate_structure`` a table argument of the table's length with an
entry of its ring at [0][0][0].
"""

import random
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest

from gorlab import GF, QQ, algebra, linalg
from gorlab.algebra import (
    AlgebraFamily,
    FiniteAlgebra,
    _box_plane,
    _Read,
    base_change,
    direct_product,
)
from gorlab.cli import compile_presentation, parse_presentation
from gorlab.families import homotopy_families, specialize
from gorlab.frobenius import (
    NonUnitalOriented,
    OrientedAlgebra,
    connected_sum,
    decompose_augmented,
    rees_family,
    unitalize,
)
from gorlab.scalar import Scalar, TPoly
from gorlab.tensors import structure_tensor

from corpus import build_corpus, random_invertible

FIELDS = (QQ, GF(7))


@lru_cache(maxsize=None)
def corpus(field):
    return build_corpus(field, 6, seed=5)


def exact(x):
    """Scalars and TPolys with the types of their raw values."""
    if isinstance(x, Scalar):
        return type(x.value), x.value
    if isinstance(x, TPoly):
        return tuple(exact(a) for a in x.coeffs)
    if isinstance(x, (tuple, list)):
        return tuple(exact(y) for y in x)
    return x


def alg_text(field):
    head = "field Q" if not field.characteristic else f"field F {field.characteristic}"
    return head + "\nvars x y\nrel x^2 - 1/2*y^2\nrel x*y\norient x^2 : 1\n"


def constructions(field):
    """(name, thunk) for every constructor that builds a table on reads."""
    t1, t2 = corpus(field)[1:3]
    A = t1.algebra
    P = random_invertible(random.Random(3), field, A.dim)
    dec = decompose_augmented(t1.oa, t1.e)
    lam = t1.oa.phi_of(A.unit)
    phi0 = [a - lam * b for a, b in zip(t1.oa.phi, t1.e)]
    hf = homotopy_families(t1)
    return [
        ("connected_sum", lambda: connected_sum(t1, t2).algebra),
        ("decompose_augmented", lambda: decompose_augmented(t1.oa, t1.e).nonunital.algebra),
        ("unitalize", lambda: unitalize(lam, dec.nonunital).algebra),
        ("homotopy_families", lambda: homotopy_families(t1).h_mv),
        ("specialize", lambda: specialize(hf.h_const, 3).algebra),
        ("rees_family", lambda: rees_family(OrientedAlgebra(A, phi0)).family),
        ("direct_product", lambda: direct_product(A, t2.algebra)),
        ("base_change", lambda: base_change(A, P)),
        ("structure_tensor", lambda: structure_tensor(A)),
        (".alg compile", lambda: compile_presentation(parse_presentation(alg_text(field))).algebra),
    ]


def built_and_boxed(thunk):
    """The object thunk() builds, the planes and scale it was last handed on
    read, the (slices, shape) _box_plane boxed while it ran and then on the
    first read of its table, and that table."""
    calls, handed = [], []
    box, on_read = algebra._box_plane, _Read.on_read.__func__

    def counting(field, slices, scale, zero, shape, memo):
        calls.append((slices, shape))
        return box(field, slices, scale, zero, shape, memo)

    def keeping(cls, planes, scale, *args, **kwargs):
        handed.append((planes, scale))
        return on_read(cls, planes, scale, *args, **kwargs)

    with mock.patch.object(algebra, "_box_plane", counting), \
            mock.patch.object(_Read, "on_read", classmethod(keeping)):
        obj = thunk()
        built = list(calls)
        table = obj.entries if hasattr(obj, "entries") else obj.c
    return obj, handed[-1], built, calls[len(built):], table


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tables_are_boxed_on_first_read(field):
    for name, thunk in constructions(field):
        obj, (planes, scale), built, boxed, table = built_and_boxed(thunk)
        dims = obj.dims if hasattr(obj, "dims") else (obj.dim,) * 3
        zero = obj._entry(0, field) if hasattr(obj, "_entry") else field.zero
        read = obj.raw[0][:-1]
        assert not [s for s, _ in built if any(s is pl for pl in read)], name
        assert len(boxed) == len(read) == dims[0], name
        assert all(s is pl and shape == dims[1:] for (s, shape), pl in zip(boxed, read)), name
        eager = tuple(_box_plane(field, pl, scale, zero, dims[1:], {}) for pl in planes)
        assert exact(table) == exact(eager), name
        assert (obj.entries if hasattr(obj, "entries") else obj.c) is table, name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_boxed_and_on_read_algebras_compare_alike(field):
    for i, t in enumerate(corpus(field)):
        P = random_invertible(random.Random(i), field, t.algebra.dim)
        on_read = base_change(t.algebra, P)
        ref = base_change(t.algebra, P)
        boxed = FiniteAlgebra(field, ref.labels, ref.c, ref.unit)
        assert on_read._c is None and boxed._c is not None
        assert on_read == boxed and boxed == on_read
        assert hash(base_change(t.algebra, P)) == hash(boxed)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_base_change_unit_matches_vec_mat(field):
    # the unit mapped on the raw inverse, against the boxed vec_mat
    rng = random.Random(7)
    for t in corpus(field):
        A = t.algebra
        for _ in range(3):
            P = random_invertible(rng, field, A.dim, bound=3)
            if not field.characteristic:  # rows scaled: denominators in P and its inverse
                P = [[x * s for x in row]
                     for row, s in zip(P, (Fraction(rng.randint(1, 5), rng.randint(1, 5))
                                           for _ in P))]
            want = linalg.vec_mat(A.unit, linalg.invert(field, P))
            assert exact(base_change(A, P).unit) == exact(want)
        nonunital = decompose_augmented(t.oa, t.e).nonunital.algebra
        if nonunital.dim:
            P = random_invertible(rng, field, nonunital.dim)
            assert base_change(nonunital, P).unit is None


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_validation_sees_the_length_and_ring_of_the_table(field):
    # validation on the read boxes nothing, but the table argument still has
    # the table's length and, at [0][0][0], an entry of its ring, which is
    # what a tracer wrapping validate_structure reads
    seen, real = [], algebra.validate_structure

    def keeping(c, unit, zero, read=None):
        seen.append((len(c), type(c[0][0][0]) if c else None, type(zero)))
        return real(c, unit, zero, read)

    t1 = corpus(field)[1]
    dec = decompose_augmented(t1.oa, t1.e)
    h = homotopy_families(t1).h_const
    (*planes, _), scale = h.raw
    with mock.patch.object(algebra, "validate_structure", keeping):
        for build in (lambda: unitalize(dec.lam, dec.nonunital).algebra,
                      lambda: AlgebraFamily.on_read(planes, scale, field, h.labels, h.unit)):
            obj = build()
            assert seen.pop() == (obj.dim, type(obj._entry(0, field)), type(obj._entry(0, field)))
            assert obj._c is None
