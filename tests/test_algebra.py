import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import random_augmented, random_nondegenerate_form
from helpers import full_space
from gorlab import GF, QQ, linalg, poly_ring, quotient_algebra
from gorlab.algebra import (
    Subspace,
    algebra_from_constants,
    annihilator,
    base_change,
    direct_product,
    ideal_span,
    multiply,
)
from gorlab.errors import (
    BadUnit,
    DimensionMismatch,
    FieldMismatch,
    NotAssociative,
    NotCommutative,
)
from gorlab.forms import BilinearForm, orth_complement, radical


def dual_numbers(field=QQ):
    z, o = 0, 1
    c = [[[z, z], [z, z]], [[z, z], [z, z]]]
    c[0][0] = [o, z]
    c[0][1] = [z, o]
    c[1][0] = [z, o]
    return algebra_from_constants(field, ["1", "x"], c, unit=[1, 0])


def qq2():
    z, o = 0, 1
    c = [[[o, z], [z, z]], [[z, z], [z, o]]]
    return algebra_from_constants(QQ, ["p", "q"], c, unit=[1, 1])


def test_validation_accepts_dual_numbers():
    A = dual_numbers()
    assert A.dim == 2 and A.is_unital


def test_validation_rejects_noncommutative():
    z, o = 0, 1
    c = [[[o, z], [z, o]], [[z, z], [z, z]]]  # e0 e1 = x but e1 e0 = 0
    with pytest.raises(NotCommutative):
        algebra_from_constants(QQ, ["1", "x"], c, unit=[1, 0])


def test_validation_rejects_nonassociative():
    # a*a = b, a*b = a, b*b = 0: then (aa)b = 0 but a(ab) = b
    z, o = 0, 1
    c = [
        [[z, o], [o, z]],
        [[o, z], [z, z]],
    ]
    with pytest.raises(NotAssociative):
        algebra_from_constants(QQ, ["a", "b"], c)


def test_validation_rejects_bad_unit():
    z, o = 0, 1
    c = [[[o, z], [z, o]], [[z, o], [z, z]]]
    with pytest.raises(BadUnit):
        algebra_from_constants(QQ, ["1", "x"], c, unit=[0, 1])


def test_validation_accepts_qq2():
    A = qq2()
    assert multiply(A, [1, 0], [0, 1]) == (QQ.zero, QQ.zero)


def test_multiply_examples():
    A = dual_numbers()
    assert multiply(A, [0, 1], [0, 1]) == (QQ.zero, QQ.zero)
    assert multiply(A, A.unit, [3, 5]) == (QQ.scalar(3), QQ.scalar(5))
    x, = poly_ring(QQ, "x")
    A4 = quotient_algebra([x**4])
    # x^2 * x = x^3: against the normal-form oracle
    assert multiply(A4, [0, 0, 1, 0], [0, 1, 0, 0]) == (
        QQ.zero,
        QQ.zero,
        QQ.zero,
        QQ.one,
    )


def test_ideal_span_examples():
    A = dual_numbers()
    I = ideal_span(A, [[0, 1]])
    assert I.rows == ((QQ.zero, QQ.one),)
    assert ideal_span(A, [A.unit]) == full_space(QQ, 2)
    x, = poly_ring(QQ, "x")
    A4 = quotient_algebra([x**4])
    I2 = ideal_span(A4, [[0, 0, 1, 0]])
    assert I2.dim == 2 and I2.contains([0, 0, 0, 1])


def test_annihilator_examples():
    A = dual_numbers()
    I = Subspace(2, [[QQ.zero, QQ.one]])
    assert annihilator(A, I) == I
    assert annihilator(A, Subspace(2, [])) == full_space(QQ, 2)
    x, = poly_ring(QQ, "x")
    A4 = quotient_algebra([x**4])
    ann = annihilator(A4, Subspace(4, [[0, 0, 0, 1]], QQ))
    assert ann.dim == 3 and not ann.contains(A4.unit)


def test_annihilator_brute_force_oracle_f5():
    # enumerate all vectors of F5[x]/x^3 and compare elementwise
    f = GF(5)
    x, = poly_ring(f, "x")
    A = quotient_algebra([x**3])
    I = ideal_span(A, [[0, 0, 1]])
    ann = annihilator(A, I)
    brute = []
    for v in itertools.product(range(5), repeat=3):
        vv = [f.scalar(a) for a in v]
        if all(
            multiply(A, vv, w) == (f.zero,) * 3 for w in I.rows
        ):
            brute.append(tuple(vv))
    brute_space = Subspace(3, brute)
    assert brute_space == ann


def test_annihilator_is_ideal():
    x, = poly_ring(QQ, "x")
    A = quotient_algebra([x**4])
    I = ideal_span(A, [[0, 0, 1, 0]])
    ann = annihilator(A, I)
    assert ideal_span(A, ann.rows) == ann


def test_double_annihilator_contains_ideal():
    rng = random.Random(5)
    x, y = poly_ring(QQ, "x", "y")
    A = quotient_algebra([x**2, y**3, x * y**2])
    for _ in range(10):
        gens = [[rng.randint(-2, 2) for _ in range(A.dim)] for _ in range(2)]
        I = ideal_span(A, gens)
        ann2 = annihilator(A, annihilator(A, I))
        assert I.is_contained_in(ann2)


def test_direct_product():
    A = dual_numbers()
    B = qq2()
    P = direct_product(A, B)
    assert P.dim == 4
    assert P.unit == (QQ.one, QQ.zero, QQ.one, QQ.one)
    with pytest.raises(FieldMismatch):
        direct_product(A, dual_numbers(GF(3)))
    C = direct_product(dual_numbers(GF(3)), dual_numbers(GF(3)))
    assert C.dim == 4 and C.c[1][1] == (GF(3).zero,) * 4


def test_base_change_identity_and_roundtrip():
    A = dual_numbers()
    assert base_change(A, linalg.identity(QQ, 2), labels=A.labels) == A
    P = [[QQ.scalar(1), QQ.scalar(2)], [QQ.scalar(3), QQ.scalar(5)]]
    B = base_change(A, P)
    back = base_change(B, linalg.invert(QQ, P), labels=A.labels)
    assert back == A


def test_base_change_preserves_validity():
    from gorlab.algebra import validate_structure

    A = dual_numbers()
    B = base_change(A, [[1, 2], [0, 3]])
    validate_structure(B.c, B.unit, QQ.zero)
    # x' = 2x still squares to zero
    C = base_change(A, [[1, 0], [0, 2]])
    assert C.c[1][1] == (QQ.zero, QQ.zero)


def test_base_change_requires_invertible():
    from gorlab.errors import Singular

    with pytest.raises(Singular):
        base_change(dual_numbers(), [[1, 1], [1, 1]])


def test_subspace_canonical_equality():
    a = Subspace(3, [[QQ.one, QQ.one, QQ.zero], [QQ.zero, QQ.one, QQ.one]])
    b = Subspace(3, [[QQ.one, QQ.zero, QQ.scalar(-1)], [QQ.zero, QQ.one, QQ.one]])
    assert a == b
    assert a.contains([1, 2, 1])
    assert not a.contains([1, 0, 0])
    with pytest.raises(DimensionMismatch):
        Subspace(3, [[QQ.one, QQ.one]])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(7)]), st.integers(2, 5), st.integers(0, 2**32))
def test_kernel_sites_hand_on_rref_canonical_rows(field, dim, seed):
    """radical, orth_complement and annihilator build their Subspace by
    Subspace.on_rref, which runs no elimination: the rows each passes must
    already equal their own RREF."""
    rng = random.Random(seed)
    on_rref, seen = Subspace.on_rref.__func__, []

    def spy(cls, ambient_dim, rows, field=None):
        seen.append((ambient_dim, rows))
        return on_rref(cls, ambient_dim, rows, field)

    def rows(k):
        return [[field.scalar(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(k)]

    gram = rows(dim)
    gram = [[gram[min(i, j)][max(i, j)] for j in range(dim)] for i in range(dim)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subspace, "on_rref", classmethod(spy))
        radical(BilinearForm(field, gram))
        B = random_nondegenerate_form(rng, field, dim)
        orth_complement(B, Subspace(dim, rows(rng.randint(0, dim))))
        A = random_augmented(rng, field, dim).oa.algebra
        annihilator(A, Subspace(dim, rows(rng.randint(0, 2)), field))
    assert len(seen) == 3
    for ambient_dim, red in seen:
        assert red == linalg.rref(red, ambient_dim)[0]


def test_serialize_roundtrip_shape():
    A = dual_numbers()
    data = A.serialize()
    assert data["labels"] == ["1", "x"]
    assert data["structure_constants"][0][1] == ["0", "1"]
    assert data["unit"] == ["1", "0"]
