import random
from fractions import Fraction

import pytest

from gorlab import GF, QQ, linalg, poly_ring, quotient_algebra
from gorlab.algebra import base_change, direct_product
from gorlab.errors import (
    BadParameter,
    GenericityFailure,
    ShapeMismatch,
    Singular,
    SingularWitness,
)
from gorlab.forms import hyperbolic_form, is_nondegenerate
from gorlab.frobenius import Augmented, OrientedAlgebra, form_to_algebra
from gorlab.tensors import (
    Tensor3,
    aq_algebra,
    cw_tensor,
    degeneration_from_points,
    degeneration_to_cw,
    matrix_algebra_tensor,
    one_generic,
    reduced_degeneration,
    strassen_commuting,
    structure_tensor,
)

F7 = GF(7)


def chain4_aug(field=QQ):
    x, = poly_ring(field, "x")
    A = quotient_algebra([x**4])
    return Augmented(OrientedAlgebra(A, [0, 0, 0, 1]), [1, 0, 0, 0])


def test_structure_tensor_base_field():
    x, = poly_ring(QQ, "x")
    A = quotient_algebra([x - 0 * x])
    T = structure_tensor(A)
    assert T.dims == (1, 1, 1) and T.entries[0][0][0] == QQ.one


def test_structure_tensor_dual_numbers():
    x, = poly_ring(QQ, "x")
    T = structure_tensor(quotient_algebra([x**2]))
    nonzero = {
        (i, j, k)
        for i in range(2)
        for j in range(2)
        for k in range(2)
        if T.entries[i][j][k]
    }
    assert nonzero == {(0, 0, 0), (0, 1, 1), (1, 0, 1)}


def test_structure_tensor_of_product_is_block_sum():
    x, = poly_ring(QQ, "x")
    A = quotient_algebra([x**2])
    B = quotient_algebra([x**3])
    TP = structure_tensor(direct_product(A, B))
    TA, TB = structure_tensor(A), structure_tensor(B)
    da = A.dim
    for i in range(5):
        for j in range(5):
            for k in range(5):
                v = TP.entries[i][j][k]
                if i < da and j < da and k < da:
                    assert v == TA.entries[i][j][k]
                elif i >= da and j >= da and k >= da:
                    assert v == TB.entries[i - da][j - da][k - da]
                else:
                    assert not v


def test_cw_tensor_support():
    # oracle: enumerate the multiplication support of A_1 = k[y]/y^3 by hand
    # (1*1, 1*y, y*1, 1*y^2, y^2*1, y*y), which is 3q+3 = 6 unit entries
    T = cw_tensor(QQ, 1)
    entries = {
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if T.entries[i][j][k]
    }
    assert entries == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (0, 2, 2), (2, 0, 2), (1, 1, 2)}
    for q in range(1, 5):
        Tq = cw_tensor(QQ, q)
        count = sum(
            1
            for i in range(q + 2)
            for j in range(q + 2)
            for k in range(q + 2)
            if Tq.entries[i][j][k]
        )
        assert count == 3 * q + 3
    for q in range(1, 5):
        T = cw_tensor(QQ, q)
        vals = {
            str(T.entries[i][j][k])
            for i in range(q + 2)
            for j in range(q + 2)
            for k in range(q + 2)
        }
        assert vals <= {"0", "1"}
    with pytest.raises(BadParameter):
        cw_tensor(QQ, 0)


@pytest.mark.parametrize("q", range(1, 7))
def test_cw_equals_structure_tensor_of_aq(q):
    assert cw_tensor(QQ, q) == structure_tensor(aq_algebra(QQ, q))


def test_cw_equals_structure_tensor_of_aq_f7():
    for q in (1, 2, 3):
        assert cw_tensor(F7, q) == structure_tensor(aq_algebra(F7, q))


def aq_presentation(field, q):
    """The relations (y_i y_j)_{i<j}, (y_i^2 - y_j^2)_{i<j}, y_1^3 of A_q."""
    y = poly_ring(field, *(f"y{i + 1}" for i in range(q)))
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)]
    return ([y[i] * y[j] for i, j in pairs] + [y[i] ** 2 - y[j] ** 2 for i, j in pairs]
            + [y[0] ** 3])


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_cw_equals_structure_tensor_of_the_compiled_presentation(field):
    # aq_algebra writes A_q down in closed form; compiling the presentation
    # by Buchberger keeps the identification with CW_q independent of it
    for q in range(1, 9):
        A = quotient_algebra(aq_presentation(field, q))
        assert aq_algebra(field, q) == A
        assert cw_tensor(field, q) == structure_tensor(A)


def test_one_generic_unit_witness():
    A = aq_algebra(QQ, 2)
    T = structure_tensor(A)
    rep = one_generic(T)
    assert rep.status == "witness"
    assert linalg.det(QQ, T.slice_first(rep.witness))


def test_one_generic_zero_tensor():
    z = QQ.zero
    T = Tensor3(QQ, [[[z, z], [z, z]], [[z, z], [z, z]]])
    rep = one_generic(T)
    assert rep.status == "no"
    assert rep.certificate is not None and not rep.certificate


def test_one_generic_shape_mismatch():
    z = QQ.zero
    with pytest.raises(ShapeMismatch):
        one_generic(Tensor3(QQ, [[[z], [z]]]))


def test_strassen_commuting_commutative_unit():
    A = aq_algebra(QQ, 3)
    T = structure_tensor(A)
    assert strassen_commuting(T, A.unit)


def test_strassen_commuting_rejects_singular_witness():
    A = aq_algebra(QQ, 2)
    T = structure_tensor(A)
    with pytest.raises(SingularWitness):
        strassen_commuting(T, [0, 1, 0, 0])


def test_strassen_commuting_rejects_non_square_slices():
    """Slices 2 x 3: the same ShapeMismatch as one_generic, not a verdict."""
    T = Tensor3(GF(101), [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 0, 0]]])
    with pytest.raises(ShapeMismatch, match="slices are not square"):
        one_generic(T)
    with pytest.raises(ShapeMismatch, match="slices are not square"):
        strassen_commuting(T, [1, 0])
    with pytest.raises(ShapeMismatch, match="contraction vector has wrong length"):
        strassen_commuting(T, [1, 0, 0])


def _boxed_strassen(T, witness):
    """Strassen's test on boxed matrices: invert the contraction, then
    N_i = slice(a)^-1 T[i] and every pair of products."""
    try:
        Minv = linalg.invert(T.field, T.slice_first(witness))
    except Singular:
        raise SingularWitness("witness slice is singular") from None
    N = [linalg.mat_mul(Minv, layer) for layer in T.entries]
    return all(linalg.mat_mul(N[i], N[k]) == linalg.mat_mul(N[k], N[i])
               for i in range(len(N)) for k in range(i + 1, len(N)))


def test_strassen_commuting_matches_boxed_products():
    rng = random.Random(5)
    cases = [(matrix_algebra_tensor(QQ, 2), [1, 0, 0, 1]), (matrix_algebra_tensor(F7, 2), [1, 0, 0, 1])]
    for field in (QQ, GF(2), F7, GF(101)):
        for q in (1, 2, 3):
            cases.append((cw_tensor(field, q), [1] + [0] * (q + 1)))
        for _ in range(12):
            d1, d = rng.randint(1, 3), rng.randint(1, 4)
            draw = (lambda: rng.choice([0, 0, 1, -1, Fraction(1, 2), 3])) if not field.characteristic \
                else (lambda: rng.randrange(field.characteristic))
            # sparse layers, the first one often the identity, so most witnesses invert
            layers = [[[draw() if rng.random() < 0.4 else int(i == j and k == 0)
                        for j in range(d)] for i in range(d)] for k in range(d1)]
            cases.append((Tensor3(field, layers), [draw() for _ in range(d1)]))
    verdicts = set()
    for T, witness in cases:
        try:
            want = _boxed_strassen(T, witness)
        except SingularWitness:
            with pytest.raises(SingularWitness, match="witness slice is singular"):
                strassen_commuting(T, witness)
            verdicts.add("singular")
            continue
        assert strassen_commuting(T, witness) is want
        verdicts.add(want)
    assert verdicts == {True, False, "singular"}


def test_slice_first_matches_the_boxed_sum():
    # the contraction runs packed, over QQ on integers scaled by the read's L
    # and by the common denominator of a
    rng = random.Random(11)
    for field in (QQ, F7, GF(2**61 - 1)):
        draw = (lambda: rng.choice([0, 1, -2, Fraction(1, 2), Fraction(-7, 3), 10**20])) \
            if not field.characteristic else (lambda: rng.randrange(field.characteristic))
        for _ in range(12):
            d1, d2, d3 = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
            T = Tensor3(field, [[[draw() for _ in range(d3)] for _ in range(d2)]
                                for _ in range(d1)])
            a = [field.scalar(draw()) for _ in range(d1)]
            want = tuple(tuple(sum((x * layer[j][k] for x, layer in zip(a, T.entries)), field.zero)
                               for k in range(d3)) for j in range(d2))
            assert T.slice_first(a) == want


def test_strassen_matrix_algebra_counterexample():
    T = matrix_algebra_tensor(QQ, 2)
    # witness: the identity matrix E11 + E22 = basis 0 and 3
    ident = [1, 0, 0, 1]
    assert linalg.det(QQ, T.slice_first(ident))
    assert not strassen_commuting(T, ident)


def test_cw_is_one_generic_and_commuting():
    for q in (1, 2, 3):
        T = cw_tensor(QQ, q)
        rep = one_generic(T)
        assert rep.status == "witness"
        assert strassen_commuting(T, rep.witness)


def test_degeneration_family_fibers():
    t = chain4_aug()
    rep = degeneration_to_cw(t)
    fam = rep.family
    assert fam.dim == 4
    # fiber at 1 reproduces the input in the adapted basis
    f1 = fam.at(1)
    assert f1.c == base_change(t.algebra, rep.adapted_basis).c
    # fiber at 0 has zero V-multiplication and non-degenerate 2-dim B
    f0 = fam.at(0)
    m = rep.v_form.dim
    assert m == 2 and is_nondegenerate(rep.v_form)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert not f0.c[2 + i][2 + j][2 + k]
            # V products land on the socle line with coefficient B(v_i, v_j)
            assert f0.c[2 + i][2 + j][1] == rep.v_form.gram[i][j]


def test_degeneration_invariants_report():
    rep = degeneration_to_cw(chain4_aug())
    assert rep.invariants.rank == 2
    assert rep.invariants.signature == 0
    assert rep.closed_fiber_is_aq


def test_closed_fiber_is_not_aq_for_alternating_form_in_char_2():
    # over F_2 the hyperbolic plane is alternating, A_q's intrinsic form is not
    hyp = form_to_algebra(hyperbolic_form(GF(2), 1))
    assert degeneration_to_cw(hyp).closed_fiber_is_aq is False
    for field in (QQ, GF(101)):
        rep = degeneration_to_cw(form_to_algebra(hyperbolic_form(field, 1)))
        assert rep.closed_fiber_is_aq is True


def test_reduced_degeneration_q1():
    rep = reduced_degeneration(1, 0)
    assert rep.hilbert == [1, 1, 1]
    assert rep.limit.dim == 3
    assert rep.gorenstein.status == "oriented"


def test_reduced_degeneration_q2_q3():
    for q in (2, 3):
        done = False
        for seed in range(5):
            try:
                rep = reduced_degeneration(q, seed)
            except GenericityFailure:
                continue
            assert rep.hilbert == [1, q, 1]
            assert rep.limit.dim == q + 2
            done = True
            break
        assert done


def test_reduced_degeneration_collinear_fails():
    # engineered degenerate sample: four points on one line in the hyperplane
    points = [(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1)]
    with pytest.raises(Exception) as exc:
        degeneration_from_points(QQ, points)
    from gorlab.errors import BoundTooSmall, GenericityFailure as GF_

    assert isinstance(exc.value, (GF_, BoundTooSmall))


def test_reduced_degeneration_bad_parameters():
    with pytest.raises(BadParameter):
        reduced_degeneration(0, 0)
    with pytest.raises(BadParameter):
        reduced_degeneration(2, 0, GF(3))


def test_tensor_from_support_rejects_entries_outside_its_dims():
    for dims, entry in (((2, 2, 2), (-1, 0, 0, 5)), ((2, 2, 2), (2, 0, 0, 5)),
                        ((2, 3, 1), (1, 2, 1, 1)), ((0, 1, 1), (0, 0, 0, 1))):
        with pytest.raises(ShapeMismatch, match=rf"entry \({entry[0]}, {entry[1]}, "):
            Tensor3.from_support(QQ, dims, [entry])
    for dims in ((-1, 2, 2), (2, -1, 2), (2, 2, -3)):
        with pytest.raises(ShapeMismatch, match="negative dimension"):
            Tensor3.from_support(QQ, dims, [])
    T = Tensor3.from_support(QQ, (2, 3, 1), [(1, 2, 0, 4), (0, 0, 0, 1)])
    assert T.dims == (2, 3, 1) and T.entries[1][2][0] == QQ.scalar(4)


def test_tensor_from_support_and_serialize():
    T = cw_tensor(QQ, 1)
    data = T.serialize()
    assert data["dims"] == [3, 3, 3]
    assert len(data["entries"]) == 27
