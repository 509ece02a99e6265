import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from certificates import assert_not_gorenstein_certificate
from corpus import build_corpus
from gorlab import GF, QQ, linalg, poly_ring, quotient_algebra
from gorlab.algebra import (
    FiniteAlgebra,
    Subspace,
    annihilator,
    base_change,
    direct_product,
    ideal_span,
    multiply,
)
from gorlab.errors import Degenerate, NotIsotropic, NotIsotropicUnit
from gorlab.forms import (
    BilinearForm,
    hyperbolic_form,
    is_nondegenerate,
    orth_complement,
)
from gorlab.frobenius import (
    Augmented,
    NonUnitalOriented,
    OrientedAlgebra,
    augmentation_check,
    b_phi,
    connected_sum,
    decompose_augmented,
    form_to_algebra,
    gorenstein_test,
    hyp_algebra,
    isotropy_check,
    rees_family,
    socle_generator,
    surgery_inverse,
    unitalize,
)

F7 = GF(7)


def chain(field, n):
    x, = poly_ring(field, "x")
    return quotient_algebra([x**n])


def dual_with_phi0(field=QQ):
    A = chain(field, 2)
    return Augmented(OrientedAlgebra(A, [0, 1]), [1, 0])


def test_b_phi_dual_numbers():
    A = chain(QQ, 2)
    assert b_phi(A, [0, 1]).gram == hyperbolic_form(QQ, 1).gram
    B = b_phi(A, [1, 0])
    assert B.gram == BilinearForm(QQ, [[1, 0], [0, 0]]).gram
    assert not is_nondegenerate(B)


def test_b_phi_chain3():
    A = chain(QQ, 3)
    B = b_phi(A, [0, 0, 1])
    assert B.gram == BilinearForm(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]).gram


def test_b_phi_linearity():
    A = chain(QQ, 3)
    rng = random.Random(0)
    for _ in range(10):
        phi = [rng.randint(-4, 4) for _ in range(3)]
        psi = [rng.randint(-4, 4) for _ in range(3)]
        a = rng.randint(-3, 3)
        lhs = b_phi(A, [a * p + q for p, q in zip(phi, psi)])
        g1 = b_phi(A, phi).gram
        g2 = b_phi(A, psi).gram
        rhs = [
            [QQ.scalar(a) * g1[i][j] + g2[i][j] for j in range(3)] for i in range(3)
        ]
        assert lhs.gram == linalg.mat(rhs)


def test_oriented_algebra_rejects_degenerate():
    A = chain(QQ, 2)
    with pytest.raises(Degenerate):
        OrientedAlgebra(A, [1, 0])


def test_gorenstein_test_aq_and_chains():
    from gorlab.tensors import aq_algebra

    for q in (1, 2, 3):
        rep = gorenstein_test(aq_algebra(QQ, q))
        assert rep.status == "oriented"
        assert is_nondegenerate(b_phi(aq_algebra(QQ, q), rep.witness))
    for n in range(1, 7):
        rep = gorenstein_test(chain(QQ, n))
        assert rep.status == "oriented"


def test_gorenstein_test_negative_certificate():
    x, y = poly_ring(QQ, "x", "y")
    A = quotient_algebra([x**2, x * y, y**2])
    rep = gorenstein_test(A)
    assert_not_gorenstein_certificate(A, rep)
    # J = Soc = (x, y): a two-dimensional socle over the residue field QQ
    assert rep.nilradical.dim == 2 and rep.socle == rep.nilradical


def test_gorenstein_test_split_field():
    # QQ^d: any functional with all coordinates nonzero works
    A = direct_product(chain(QQ, 1), chain(QQ, 1))
    rep = gorenstein_test(A)
    assert rep.status == "oriented"
    assert all(rep.witness)


def test_gorenstein_test_deterministic():
    A = chain(QQ, 4)
    r1 = gorenstein_test(A, seed=3, trials=10)
    r2 = gorenstein_test(A, seed=3, trials=10)
    assert r1 == r2


def test_augmentation_check():
    A = chain(QQ, 2)
    assert augmentation_check(A, [1, 0])
    assert not augmentation_check(A, [0, 1])  # e(1) = 0
    P = direct_product(chain(QQ, 1), chain(QQ, 1))
    assert augmentation_check(P, [1, 0])
    assert augmentation_check(P, [0, 1])
    assert not augmentation_check(P, [1, 1])  # not multiplicative


def test_socle_generator_dual():
    t = dual_with_phi0()
    assert socle_generator(t.oa, t.e) == (QQ.zero, QQ.one)


def test_socle_generator_defining_property():
    A = chain(QQ, 4)
    oa = OrientedAlgebra(A, [0, 0, 0, 1])
    e = (QQ.one, QQ.zero, QQ.zero, QQ.zero)
    x = socle_generator(oa, e)
    for i in range(4):
        y = A.basis_vector(i)
        assert oa.form.apply(x, y) == e[i]


def test_isotropy_examples():
    assert isotropy_check(dual_with_phi0().oa, [1, 0])
    # QQ x QQ with a generic orientation: projections are never isotropic
    P = direct_product(chain(QQ, 1), chain(QQ, 1))
    oa = OrientedAlgebra(P, [2, 3])
    assert not isotropy_check(oa, [1, 0])
    assert not isotropy_check(oa, [0, 1])
    A4 = chain(QQ, 4)
    oa4 = OrientedAlgebra(A4, [0, 0, 0, 1])
    assert isotropy_check(oa4, [1, 0, 0, 0])
    # annihilator criterion agrees by construction; check it explicitly
    ker = Subspace(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], QQ)
    ann = annihilator(A4, ker)
    assert ann == Subspace(4, [[0, 0, 0, 1]], QQ)


@lru_cache(maxsize=None)
def _corpus(field):
    return build_corpus(field, 12, seed=0)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_isotropy_check_is_the_annihilator_criterion(data):
    # isotropy_check reads e(x) for the socle generator x; it must agree with
    # Ann(ker e) <= ker e.  On k x A the projection onto k is not isotropic,
    # while A's own augmentation, pulled back, is.
    field = data.draw(st.sampled_from((QQ, F7)))
    t = data.draw(st.sampled_from(_corpus(field)))
    oa, e = t.oa, t.e
    if data.draw(st.booleans()):
        k = FiniteAlgebra(field, ["1"], [[[1]]], unit=[1])
        a = field.scalar(data.draw(st.integers(1, 6)))
        oa = OrientedAlgebra(direct_product(k, t.algebra), (a,) + t.oa.phi)
        z = field.zero
        e = (field.one,) + (z,) * t.oa.dim if data.draw(st.booleans()) else (z,) + t.e
    A = oa.algebra
    ker = Subspace(A.dim, linalg.kernel_basis(field, [e], A.dim))
    contained = all(not linalg.sum_dot(e, row) for row in annihilator(A, ker).rows)
    assert isotropy_check(oa, e) == contained


def test_local_socle_lemma():
    # x spans Ann(ker e), x^2 = 0, phi(x) = 1
    A4 = chain(QQ, 4)
    oa = OrientedAlgebra(A4, [0, 0, 0, 1])
    e = (QQ.one, QQ.zero, QQ.zero, QQ.zero)
    x = socle_generator(oa, e)
    ker = Subspace(4, linalg.kernel_basis(QQ, [e], 4))
    assert annihilator(A4, ker) == Subspace(4, [x])
    assert multiply(A4, x, x) == (QQ.zero,) * 4
    assert oa.phi_of(x) == QQ.one


def test_decompose_chain4():
    A4 = chain(QQ, 4)
    oa = OrientedAlgebra(A4, [0, 0, 0, 1])
    dec = decompose_augmented(oa, [1, 0, 0, 0])
    assert dec.lam == QQ.zero
    assert dec.nonunital.dim == 2
    # B restricted to V = span(x, x^2) is the hyperbolic pairing
    assert dec.nonunital.form.gram == hyperbolic_form(QQ, 1).gram
    # v1 * v1 projects back into V with a nonzero component
    assert any(dec.nonunital.algebra.c[0][0])


def test_decompose_dual_gives_zero_space():
    t = dual_with_phi0()
    dec = decompose_augmented(t.oa, t.e)
    assert dec.lam == QQ.zero and dec.nonunital.dim == 0


def test_decompose_requires_isotropy():
    P = direct_product(chain(QQ, 1), chain(QQ, 1))
    oa = OrientedAlgebra(P, [2, 3])
    with pytest.raises(NotIsotropic):
        decompose_augmented(oa, [1, 0])


def test_unitalize_scalar_example():
    # unitalize(5, 0-dim space): QQ[x]/x^2 with phi(1) = 5, B = [[5,1],[1,0]]
    z = QQ.zero
    V = FiniteAlgebra(QQ, [], [], None, validate=False)
    B = BilinearForm(QQ, [])
    t = unitalize(5, NonUnitalOriented(V, B))
    assert t.oa.dim == 2
    assert t.oa.phi == (QQ.scalar(5), QQ.one)
    assert t.oa.form.gram == BilinearForm(QQ, [[5, 1], [1, 0]]).gram
    assert t.e == (QQ.one, z)


def test_unitalize_decompose_roundtrip():
    A4 = chain(QQ, 4)
    oa = OrientedAlgebra(A4, [0, 0, 0, 1])
    e = (QQ.one, QQ.zero, QQ.zero, QQ.zero)
    dec = decompose_augmented(oa, e)
    rebuilt = unitalize(dec.lam, dec.nonunital)
    adapted = base_change(A4, dec.adapted_basis, labels=rebuilt.algebra.labels)
    assert rebuilt.algebra.c == adapted.c
    assert rebuilt.algebra.unit == adapted.unit
    # orientation and augmentation transport along the adapted basis
    phi_ad = tuple(linalg.sum_dot(row, oa.phi) for row in dec.adapted_basis)
    e_ad = tuple(linalg.sum_dot(row, e) for row in dec.adapted_basis)
    assert rebuilt.oa.phi == phi_ad
    assert rebuilt.e == e_ad


def test_form_to_algebra_examples():
    t = form_to_algebra(BilinearForm(QQ, []))
    assert t.oa.dim == 2 and t.oa.phi == (QQ.zero, QQ.one)
    with pytest.raises(Degenerate):
        form_to_algebra(BilinearForm(QQ, [[0]]))
    B = BilinearForm(QQ, [[1, 0], [0, 1]])
    t2 = form_to_algebra(B)
    # B_phi = hyperbolic plane + B
    expected = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert t2.oa.form.gram == BilinearForm(QQ, expected).gram


def test_form_to_algebra_identity_is_aq():
    from gorlab.tensors import aq_algebra

    q = 3
    ident = BilinearForm(QQ, linalg.identity(QQ, q))
    t = form_to_algebra(ident)
    # permute (1, x, v_1..v_q) -> (1, v_1..v_q, x) to match (1, y_i, y1^2)
    d = q + 2
    P = []
    P.append([1 if j == 0 else 0 for j in range(d)])
    for i in range(q):
        P.append([1 if j == 2 + i else 0 for j in range(d)])
    P.append([1 if j == 1 else 0 for j in range(d)])
    Aq = aq_algebra(QQ, q)
    assert base_change(t.algebra, P, labels=Aq.labels) == Aq


def test_decompose_recovers_form_datum():
    # decomposing the algebra built from (V, B) gives back (0, (V, B, 0))
    from corpus import random_nondegenerate_form

    rng = random.Random(21)
    for _ in range(10):
        B = random_nondegenerate_form(rng, QQ, rng.randint(1, 4))
        t = form_to_algebra(B)
        dec = decompose_augmented(t.oa, t.e)
        assert dec.lam == QQ.zero
        assert dec.nonunital.form.gram == B.gram
        m = B.dim
        assert all(
            not dec.nonunital.algebra.c[i][j][k]
            for i in range(m)
            for j in range(m)
            for k in range(m)
        )


def test_connected_sum_dual_dual():
    t = dual_with_phi0()
    s = connected_sum(t, t)
    assert s.oa.dim == 2
    assert s.oa.phi == (QQ.zero, QQ.one)
    assert s.e == (QQ.one, QQ.zero)
    assert s.algebra.c[1][1] == (QQ.zero, QQ.zero)


def test_connected_sum_dimension_formula():
    A4 = chain(QQ, 4)
    t4 = Augmented(OrientedAlgebra(A4, [0, 0, 0, 1]), [1, 0, 0, 0])
    td = dual_with_phi0()
    s = connected_sum(t4, td)
    assert s.oa.dim == 4 + 2 - 2
    assert isotropy_check(s.oa, s.e)
    rep = gorenstein_test(s.oa.algebra)
    assert rep.status == "oriented"


def test_connected_sum_requires_isotropy():
    P = direct_product(chain(QQ, 1), chain(QQ, 1))
    bad = Augmented(OrientedAlgebra(P, [2, 3]), [1, 0])
    with pytest.raises(NotIsotropic):
        connected_sum(bad, dual_with_phi0())


def test_hyp_algebra_of_base_field():
    A = chain(QQ, 1)
    oa = hyp_algebra(A)
    assert oa.dim == 2
    assert oa.phi == (QQ.zero, QQ.one)
    assert oa.form.gram == hyperbolic_form(QQ, 1).gram
    assert oa.algebra.c[1][1] == (QQ.zero, QQ.zero)


def test_hyp_algebra_gram_is_hyperbolic():
    for A in (chain(QQ, 2), direct_product(chain(QQ, 1), chain(QQ, 1)), chain(F7, 3)):
        oa = hyp_algebra(A)
        assert oa.dim == 2 * A.dim
        assert oa.form.gram == hyperbolic_form(A.field, A.dim).gram


def test_surgery_inverse_examples():
    t = dual_with_phi0()
    assert surgery_inverse(t.oa).dim == 0
    A4 = chain(QQ, 4)
    oa4 = OrientedAlgebra(A4, [0, 0, 0, 1])
    B = surgery_inverse(oa4)
    assert B.dim == 2 and is_nondegenerate(B)
    P = direct_product(chain(QQ, 1), chain(QQ, 1))
    with pytest.raises(NotIsotropicUnit):
        surgery_inverse(OrientedAlgebra(P, [2, 3]))


def test_surgery_inverse_of_form_to_algebra_is_identity():
    rng = random.Random(9)
    from corpus import random_nondegenerate_form

    for _ in range(20):
        d = rng.randint(1, 4)
        B = random_nondegenerate_form(rng, QQ, d)
        t = form_to_algebra(B)
        assert surgery_inverse(t.oa).gram == B.gram


def test_rees_family_chain4():
    A4 = chain(QQ, 4)
    oa = OrientedAlgebra(A4, [0, 0, 0, 1])
    rr = rees_family(oa)
    d = 4
    # quoted Gram shape: [[0,0,1],[0,D,0],[1,0,phi(x^2) t^2]]
    g = rr.gram.gram
    assert g[0][0] == 0 and g[0][d - 1] == 1
    for i in range(1, d - 1):
        assert g[0][i] == 0 and g[i][d - 1] == 0
        for j in range(1, d - 1):
            assert g[i][j] == rr.surgered.gram[i - 1][j - 1]
    tail = g[d - 1][d - 1]
    assert not tail or (len(tail.coeffs) == 3 and not tail.coeffs[0] and not tail.coeffs[1])
    # fiber at 1 is the input in the adapted basis
    f1 = rr.family.at(1)
    assert f1.c == base_change(A4, rr.adapted_basis).c
    # fiber at 0 is form_to_algebra(surgery_inverse(oa)) after the canonical
    # reordering (1, e, x) -> (1, x, v)
    f0 = rr.family.at(0)
    fta = form_to_algebra(surgery_inverse(oa))
    P = [[1 if j == 0 else 0 for j in range(d)]]
    P.append([1 if j == d - 1 else 0 for j in range(d)])
    for i in range(d - 2):
        P.append([1 if j == 1 + i else 0 for j in range(d)])
    assert base_change(f0, P, labels=fta.algebra.labels) == fta.algebra


def test_rees_requires_isotropic_unit():
    A = chain(QQ, 2)
    with pytest.raises(NotIsotropicUnit):
        rees_family(OrientedAlgebra(A, [5, 1]))


def test_connected_sum_recovers_summand_forms_on_v_parts():
    # B_phi of the sum restricted along the canonical maps gives back the
    # summands' forms on their V-parts
    from gorlab.frobenius import _consum_core

    A4 = chain(QQ, 4)
    oa1 = OrientedAlgebra(A4, [0, 0, 0, 1])
    t1 = Augmented(oa1, [1, 0, 0, 0])
    t2 = dual_with_phi0()
    x1 = socle_generator(t1.oa, t1.e)
    x2 = socle_generator(t2.oa, t2.e)
    data = _consum_core(
        QQ,
        t1.algebra,
        t1.algebra.unit,
        t2.algebra,
        t2.algebra.unit,
        t1.e,
        t2.e,
        x1,
        x2,
        t1.oa.phi,
        t2.oa.phi,
    )
    alg = FiniteAlgebra.on_read(*data.read, QQ, data.labels, data.unit, validate=False)
    oa = OrientedAlgebra(alg, data.phi)
    dec1 = decompose_augmented(t1.oa, t1.e)
    vrows = dec1.nonunital.algebra.dim
    V = dec1.adapted_basis[2:]
    d2 = t2.oa.dim
    for i in range(vrows):
        vi = data.project(tuple(V[i]) + (QQ.zero,) * d2)
        for j in range(vrows):
            vj = data.project(tuple(V[j]) + (QQ.zero,) * d2)
            assert oa.form.apply(vi, vj) == dec1.nonunital.form.gram[i][j]


def test_enumerate_augmentations():
    from gorlab.errors import BadUnit, FieldMismatch
    from gorlab.frobenius import enumerate_augmentations

    # F5[x]/x^2 has exactly one augmentation (x -> 0)
    A = chain(GF(5), 2)
    augs = enumerate_augmentations(A)
    assert augs == [(GF(5).one, GF(5).zero)]
    # F3 x F3 has the two projections
    P = direct_product(chain(GF(3), 1), chain(GF(3), 1))
    augs = enumerate_augmentations(P)
    assert len(augs) == 2
    with pytest.raises(FieldMismatch):
        enumerate_augmentations(chain(QQ, 2))
    with pytest.raises(BadUnit):
        enumerate_augmentations(chain(GF(5), 2), budget=3)


def test_gorenstein_decided_beyond_symbolic_cap():
    # non-Gorenstein of dimension 9 > symbolic cap 8: the decision needs
    # neither sampling nor the symbolic expansion
    x, y = poly_ring(QQ, "x", "y")
    bad = quotient_algebra([x**2, x * y, y**2])
    big = bad
    for _ in range(6):
        big = direct_product(big, chain(QQ, 1))
    assert big.dim == 9
    rep = gorenstein_test(big, seed=0, trials=12, symbolic_max_dim=8)
    assert_not_gorenstein_certificate(big, rep)
    assert rep.nilradical.dim == 2 and rep.socle.dim == 8


def test_gorenstein_without_witness():
    # F_2^9 is Gorenstein, but phi orients it only when phi(e_i) = 1 for
    # every idempotent e_i: one functional in 512, and d > symbolic cap
    f = GF(2)
    big = chain(f, 1)
    for _ in range(8):
        big = direct_product(big, chain(f, 1))
    assert big.dim == 9
    rep = gorenstein_test(big, seed=0, trials=4)
    assert rep.status == "gorenstein"
    assert rep.witness is None and rep.trials == 4
    assert rep.serialize(big.labels) == {"status": "gorenstein", "trials": 4}
    assert is_nondegenerate(b_phi(big, [1] * 9))


def test_double_annihilator_equality_on_oriented():
    # Ann(Ann(I)) = I on Gorenstein algebras (perp of perp via the Lemma)
    rng = random.Random(13)
    x, = poly_ring(QQ, "x")
    A = quotient_algebra([x**5])
    for _ in range(10):
        gens = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(2)]
        I = ideal_span(A, gens)
        assert annihilator(A, annihilator(A, I)) == I


def test_orth_complement_equals_annihilator_on_oriented():
    # Lemma: I-perp = Ann(I) for ideals of an oriented algebra
    rng = random.Random(11)
    x, = poly_ring(QQ, "x")
    A = quotient_algebra([x**5])
    oa = OrientedAlgebra(A, [0, 0, 0, 0, 1])
    for _ in range(10):
        gens = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(2)]
        I = ideal_span(A, gens)
        assert orth_complement(oa.form, I) == annihilator(A, I)
