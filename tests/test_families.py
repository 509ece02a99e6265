import pytest

from gorlab import GF, QQ, linalg, poly_ring, quotient_algebra
from gorlab.algebra import direct_product
from gorlab.errors import BadShape, NotIsotropic, ZeroScalar
from gorlab.families import (
    AlgebraFamily,
    family_det_is_unit,
    family_socle_generator,
    gm_rescale_check,
    homotopy_families,
    robber_family,
    scale_multiplication_family,
    specialize,
)
from gorlab.frobenius import (
    Augmented,
    OrientedAlgebra,
    decompose_augmented,
)
from gorlab.scalar import TPoly

F7 = GF(7)


def chain4(field=QQ):
    x, = poly_ring(field, "x")
    A = quotient_algebra([x**4])
    return Augmented(OrientedAlgebra(A, [0, 0, 0, 1]), [1, 0, 0, 0])


def test_robber_structure_constant():
    rob = robber_family(QQ)
    t = TPoly.t(QQ)
    # x^3 * x = x^4 = 2t x^3 - t^2 x^2
    assert rob.c[3][1] == (TPoly(QQ), TPoly(QQ), -(t**2), 2 * t)
    assert rob.c[1][3] == rob.c[3][1]
    assert family_det_is_unit(rob)


def test_robber_socles_match_quoted_formulas():
    rob = robber_family(QQ)
    t = TPoly.t(QQ)
    z = TPoly(QQ)
    assert family_socle_generator(rob, "const") == (z, t**2, -2 * t, 1 + z)
    assert family_socle_generator(rob, "mv") == (z, z, -t, 1 + z)


def test_family_augmentation_check_needs_length_d():
    from gorlab.errors import DimensionMismatch
    from gorlab.frobenius import augmentation_check

    rob = robber_family(QQ)
    e = rob.augmentations["mv"]
    for bad in (e + (TPoly(QQ),), e[:-1]):
        with pytest.raises(DimensionMismatch, match=f"expected length 4, got {len(bad)}"):
            augmentation_check(rob, bad)


def test_robber_family_is_built_once_per_field():
    # the family is immutable: one validated build per field, then the same
    # object, equal to a family validated afresh from x^4 = 2t x^3 - t^2 x^2
    for field in (QQ, F7, GF(2)):
        rob = robber_family(field)
        assert robber_family(field) is rob
        t, zero, one = TPoly.t(field), TPoly(field), TPoly.const(field.one)
        powers = [(one, zero, zero, zero)]
        for _ in range(6):
            a, b, c, d = powers[-1]  # times x: x^4 -> 2t x^3 - t^2 x^2
            powers.append((zero, a, b - t * t * d, c + 2 * t * d))
        fresh = AlgebraFamily(
            field,
            ("1", "x", "x^2", "x^3"),
            [[powers[i + j] for j in range(4)] for i in range(4)],
            unit=powers[0],
            orientation=powers[3],
            augmentations={"const": powers[0], "mv": (one, t, t * t, t * t * t)},
            validate=True,
        )
        for name in ("labels", "c", "unit", "orientation", "augmentations"):
            assert getattr(rob, name) == getattr(fresh, name), name
        assert rob.serialize() == fresh.serialize()
    assert robber_family(GF(5)) is not robber_family(F7)


def test_robber_augmentations_cannot_be_changed_for_later_calls():
    # the kept family is shared, so its augmentations are a read-only mapping
    rob = robber_family(QQ)
    with pytest.raises(TypeError):
        rob.augmentations["mv"] = rob.augmentations["const"]
    with pytest.raises(TypeError):
        del rob.augmentations["const"]
    with pytest.raises(AttributeError):
        rob.augmentations.clear()
    t = TPoly.t(QQ)
    assert robber_family(QQ).augmentations == {
        "const": (TPoly.const(QQ.one), TPoly(QQ), TPoly(QQ), TPoly(QQ)),
        "mv": (TPoly.const(QQ.one), t, t * t, t * t * t),
    }


def test_robber_over_f2_is_a_valid_family():
    # char 2 collapses the rewrite to x^4 = t^2 x^2; the family is still a
    # valid oriented family (the split-fiber statements need char != 2)
    from gorlab.families import family_det_is_unit
    from gorlab.frobenius import augmentation_check

    rob2 = robber_family(GF(2))
    assert family_det_is_unit(rob2)
    assert augmentation_check(rob2, rob2.augmentations["const"])
    assert augmentation_check(rob2, rob2.augmentations["mv"])
    t = TPoly.t(GF(2))
    assert rob2.c[2][2] == (TPoly(GF(2)), TPoly(GF(2)), t**2, TPoly(GF(2)))


def test_robber_isotropy_as_polynomial_identity():
    rob = robber_family(QQ)
    for name in ("const", "mv"):
        s = family_socle_generator(rob, name)
        e = rob.augmentations[name]
        assert not linalg.sum_dot(e, s)


def test_specialize_robber_at_zero():
    fiber = specialize(robber_family(QQ), 0)
    A = fiber.algebra
    # x^3 != 0, x^4 = 0, orientation (x^3)*
    assert A.c[1][2][3] == QQ.one
    assert A.c[1][3] == (QQ.zero,) * 4
    assert fiber.orientation == (QQ.zero, QQ.zero, QQ.zero, QQ.one)
    assert fiber.augmentations["const"] == fiber.augmentations["mv"]


def test_specialize_robber_at_one_splits():
    fiber = specialize(robber_family(QQ), 1)
    A = fiber.algebra
    # e1 = 2x^3 - 3x^2 + 1 is idempotent; e2 = 1 - e1; e1*e2 = 0
    e1 = A.coerce_vector([1, 0, -3, 2])
    e2 = tuple(u - v for u, v in zip(A.unit, e1))
    from gorlab.algebra import multiply

    assert multiply(A, e1, e1) == e1
    assert multiply(A, e2, e2) == e2
    assert multiply(A, e1, e2) == (QQ.zero,) * 4


def test_specialize_constant_family():
    t = chain4()
    A = t.algebra
    fam = AlgebraFamily(
        QQ,
        A.labels,
        [[[TPoly.const(x) for x in row] for row in plane] for plane in A.c],
        unit=[TPoly.const(x) for x in A.unit],
        validate=False,
    )
    for c in (0, 1, 5):
        assert specialize(fam, c).algebra == A


def test_homotopy_families_basics():
    t = chain4()
    hf = homotopy_families(t)
    assert hf.h_const.dim == t.oa.dim + 2
    # shared underlying oriented family
    assert hf.h_const.c == hf.h_mv.c
    assert hf.h_const.unit == hf.h_mv.unit
    assert hf.h_const.orientation == hf.h_mv.orientation
    # distinguished augmentations differ
    assert hf.h_const.augmentations["aug"] != hf.h_mv.augmentations["aug"]


def test_homotopy_endpoints_at_zero_agree():
    t = chain4()
    hf = homotopy_families(t)
    f_const = specialize(hf.h_const, 0)
    f_mv = specialize(hf.h_mv, 0)
    assert f_const.algebra == f_mv.algebra
    assert f_const.orientation == f_mv.orientation
    assert f_const.augmentations["aug"] == f_mv.augmentations["aug"]


def test_homotopy_endpoint_at_zero_is_connected_sum_with_robber0():
    from gorlab.frobenius import connected_sum

    t = chain4()
    hf = homotopy_families(t)
    f0 = specialize(hf.h_const, 0)
    rob0 = specialize(robber_family(QQ), 0)
    eps = connected_sum(t, rob0.augmented("const"))
    assert f0.algebra == eps.algebra
    assert f0.orientation == eps.oa.phi
    assert f0.augmentations["aug"] == eps.e


def test_homotopy_requires_isotropy():
    A = direct_product(
        quotient_algebra([poly_ring(QQ, "x")[0] - 0]),
        quotient_algebra([poly_ring(QQ, "x")[0] - 0]),
    )
    bad = Augmented(OrientedAlgebra(A, [2, 3]), [1, 0])
    with pytest.raises(NotIsotropic):
        homotopy_families(bad)


def test_scale_multiplication_family():
    t = chain4()
    dec = decompose_augmented(t.oa, t.e)
    nu = dec.nonunital
    fam = scale_multiplication_family(nu)
    assert fam.unit is None
    f0 = fam.at(0)
    assert all(
        not f0.c[i][j][k]
        for i in range(nu.dim)
        for j in range(nu.dim)
        for k in range(nu.dim)
    )
    assert fam.at(1) == nu.algebra
    # compatibility B(xy, z) = B(x, yz) as a TPoly identity
    z = TPoly(QQ)
    m = nu.dim
    for i in range(m):
        for j in range(m):
            for k in range(m):
                lhs = sum(
                    (fam.c[i][j][l] * nu.form.gram[l][k] for l in range(m)), z
                )
                rhs = sum(
                    (fam.c[j][k][l] * nu.form.gram[i][l] for l in range(m)), z
                )
                assert lhs == rhs


def test_gm_rescale_check():
    from gorlab.tensors import degeneration_to_cw

    rep = degeneration_to_cw(chain4())
    assert gm_rescale_check(rep.family, 1)
    assert gm_rescale_check(rep.family, 2)
    with pytest.raises(ZeroScalar):
        gm_rescale_check(rep.family, 0)
    rep7 = degeneration_to_cw(chain4(F7))
    assert gm_rescale_check(rep7.family, 3)


def test_gm_rescale_rejects_bad_shape():
    rob = robber_family(QQ)
    with pytest.raises(BadShape):
        gm_rescale_check(rob, 2)


def test_family_validation_catches_broken_table():
    t = TPoly.t(QQ)
    z = TPoly(QQ)
    o = TPoly.const(QQ.one)
    from gorlab.errors import BadUnit, NotCommutative

    # 1*x = x but x*1 = t*x: commutativity fails as a polynomial identity
    with pytest.raises(NotCommutative):
        AlgebraFamily(
            QQ,
            ("1", "x"),
            [[[o, z], [z, o]], [[z, t], [z, z]]],
            unit=[o, z],
            validate=True,
        )
    # valid table k[t][x]/(x^2 - t) but x declared as the unit
    with pytest.raises(BadUnit):
        AlgebraFamily(
            QQ,
            ("1", "x"),
            [[[o, z], [z, o]], [[z, o], [t, z]]],
            unit=[z, o],
            validate=True,
        )
