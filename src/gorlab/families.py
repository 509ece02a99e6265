"""One-parameter algebra families over k[t].

Specialization, the rank-4 robber family of two colliding double points,
the two homotopies built from its augmentations, multiplication-scaling
degenerations of non-unital algebras, and the rescaling symmetry check for
degeneration families.  Family validity always means exact polynomial
identities, which subsumes validity of every fiber at once.

The read of a family's table lives on the family (``AlgebraFamily.raw``:
raw coefficient slices, see ``linalg.raw_slices``).  The family Gram matrix,
its unit determinant and the socle solve (``linalg.bareiss`` on raw
coefficient lists), the augmentation check and the fibers all work from it.
The robber family's table is validated once per field, then kept (it is
immutable); the rest of it, the homotopies and the fibers hold by
construction and are not re-checked.  The homotopies are the connected sum
of ``frobenius._consum_core`` on raw values: the robber's socle generator,
orientation and "mv" augmentation are read once as raw coefficient lists,
only the socle difference w carries powers of t into the coordinate map, a
functional on a row is phi·u on the unit row and phi_c - (e_c/e_j)·phi_j
on a kernel row, and the orientation and augmentations are boxed once as
TPolys.  The homotopies share the raw planes of their connected sum, each
boxed on first read of ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import AlgebraFamily, FiniteAlgebra, base_change
from .errors import BadShape, NotIsotropic, Singular, ZeroScalar
from .frobenius import (
    Augmented,
    NonUnitalOriented,
    OrientedAlgebra,
    _consum_core,
    _graded_family,
    _socle,
)
from .scalar import Field, TPoly, tpoly_eval

__all__ = [
    "AlgebraFamily",
    "Fiber",
    "family_det_is_unit",
    "family_socle_generator",
    "gm_rescale_check",
    "homotopy_families",
    "robber_family",
    "scale_multiplication_family",
    "specialize",
]


@dataclass(frozen=True)
class Fiber:
    """A specialized family: the fiber algebra plus evaluated functionals."""

    algebra: FiniteAlgebra
    orientation: tuple | None
    augmentations: dict

    def oriented(self) -> OrientedAlgebra:
        if self.orientation is None:
            raise Singular("fiber carries no orientation")
        return OrientedAlgebra(self.algebra, self.orientation)

    def augmented(self, name: str) -> Augmented:
        return Augmented(self.oriented(), self.augmentations[name])


def specialize(F: AlgebraFamily, c) -> Fiber:
    """Evaluate every structure constant and functional at t = c.  The fiber
    is not re-validated: the family's identities hold at every t = c."""
    c = F.field.scalar(c)
    alg = F.at(c, validate=False)
    ori = (
        tuple(tpoly_eval(x, c) for x in F.orientation)
        if F.orientation is not None
        else None
    )
    augs = {
        k: tuple(tpoly_eval(x, c) for x in v) for k, v in F.augmentations.items()
    }
    return Fiber(alg, ori, augs)


def family_det_is_unit(F: AlgebraFamily) -> bool:
    """Whether det of the family Gram matrix is a nonzero constant, i.e. the
    orientation is non-degenerate simultaneously in every fiber: bareiss on
    the raw Gram read off the family's table."""
    slices, _ = F.gram_slices()
    work = linalg.poly_entries(slices, F.dim, F.dim)
    return not work or (linalg.bareiss(work, F.field.characteristic) and len(work[-1][-1]) == 1)


def family_socle_generator(F: AlgebraFamily, aug: str):
    """Socle generator of a family augmentation, as a TPoly vector.

    Solves gram * x = e by one fraction-free elimination of [gram | e]
    (linalg.bareiss on raw coefficient lists) and back substitution.  The
    last pivot D is det(gram) times a constant, a unit in a valid oriented
    family.  Back substitution finds y = D x, whose entries are polynomial
    (Cramer's rule), so every division by a pivot is exact; then x = y / D.
    """
    f, d = F.field, F.dim
    p = f.characteristic
    slices, scale = F.gram_slices()
    (e,), L_e = linalg.raw_slices([[[x] for x in F.augmentations[aug]]], p)
    # [L_e gram_raw | scale e_raw] is scale L_e [gram | e]
    work = [[[L_e * v for v in x] for x in row] + [[scale * v for v in b]]
            for row, (b,) in zip(linalg.poly_entries(slices, d, d), linalg.poly_entries(e, d, 1))]
    det = (work[-1][d - 1] if d else [1]) if linalg.bareiss(work, p) else []
    if len(det) != 1:
        raise Singular("family Gram determinant is not a unit")
    y = [[]] * d
    for i in reversed(range(d)):
        acc = linalg.poly_mul(det, work[i][d], p)
        for j in range(i + 1, d):
            acc = linalg.poly_sub(acc, linalg.poly_mul(work[i][j], y[j], p), p)
        y[i] = linalg.poly_divexact(acc, work[i][i], p)
    D = det[0]
    inv = pow(D, -1, p) if p else None
    return tuple(TPoly(f, [v * inv if p else Fraction(v, D) for v in yi]) for yi in y)


_ROBBERS: dict = {}


def robber_family(field: Field) -> AlgebraFamily:
    """Two double points colliding at t = 0: the rank-4 family on basis
    (1, x, x^2, x^3) with rewrite x^4 = 2t x^3 - t^2 x^2.

    Carries the orientation extracting the x^3 coefficient, its Gram matrix
    1 on the anti-diagonal and 0 above, and the augmentations sending x to
    the roots 0 ("const") and t ("mv") of x^2 (x - t)^2.  Built from
    coefficient lists (low degree first), its table validated on the first
    call for a field; later calls return that same family.
    """
    return _robber(field)[0]


def _robber(field: Field):
    """The robber family over field and its socle generator for "const"
    (``family_socle_generator``), both built on the first call for a field
    and kept in ``_ROBBERS``."""
    try:
        return _ROBBERS[field]
    except KeyError:
        pass

    def vec(*coeffs):
        return tuple(TPoly(field, c) for c in coeffs)

    # x^n in the basis: x^0..x^3, then x^4, x^5, x^6 by the rewrite rule
    powers = [
        vec((1,), (), (), ()),
        vec((), (1,), (), ()),
        vec((), (), (1,), ()),
        vec((), (), (), (1,)),
        vec((), (), (0, 0, -1), (0, 2)),
        vec((), (), (0, 0, 0, -2), (0, 0, 3)),
        vec((), (), (0, 0, 0, 0, -3), (0, 0, 0, 4)),
    ]
    fam = AlgebraFamily(
        field,
        ("1", "x", "x^2", "x^3"),
        [[powers[i + j] for j in range(4)] for i in range(4)],
        unit=powers[0],
        orientation=powers[3],
        augmentations={"const": powers[0], "mv": vec((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1))},
        validate=True,
    )
    _ROBBERS[field] = fam, family_socle_generator(fam, "const")
    return _ROBBERS[field]


@dataclass(frozen=True)
class HomotopyFamilies:
    """The two homotopies out of the robber construction.

    h_const and h_mv share the raw planes of their table, have equal
    orientations, and differ only in the distinguished augmentation
    "aug"; both also carry the other one under its own name.  `project`
    maps a vector of the ambient product T + robber (length dim(T) + 4,
    entries Scalar or TPoly) to its class in the family basis.
    """

    h_const: AlgebraFamily
    h_mv: AlgebraFamily
    project: object


def homotopy_families(T: Augmented) -> HomotopyFamilies:
    """Connected sum of the constant family on T with the robber family,
    carried out over k[t]; endpoints interpolate between adding a split-off
    double point with T's augmentation and with the double point's own.
    Nothing is re-validated, by connected_sum's argument; the augmentations
    descend, as both robber augmentations vanish on its socle generator."""
    x1, ex = _socle(T.oa, T.e)
    if ex:  # isotropy_check, on the one solve
        raise NotIsotropic("input augmentation is not isotropic")
    f = T.oa.field
    robber, x2 = _robber(f)
    data = _consum_core(
        f,
        T.algebra,
        T.algebra.unit,
        robber,
        tuple(u.constant_value() for u in robber.unit),
        T.e,
        tuple(u.constant_value() for u in robber.augmentations["const"]),
        x1,
        x2,
        T.oa.phi,
        robber.orientation,
    )
    augs = {"const": data.e_left, "mv": data.e_right_of(robber.augmentations["mv"])}
    # the homotopies share the raw planes of the table; only "aug" differs
    h_const, h_mv = (AlgebraFamily.on_read(*data.read, f, data.labels, data.unit, data.phi,
                                           {"aug": augs[name], **augs}, validate=False)
                     for name in ("const", "mv"))
    return HomotopyFamilies(h_const, h_mv, data.project)


def scale_multiplication_family(nu: NonUnitalOriented) -> AlgebraFamily:
    """The non-unital family with multiplication scaled by t and constant
    pairing: fiber 0 has zero multiplication, fiber 1 is the input.  Every
    basis vector has weight 1, so every product takes one t."""
    return _graded_family(nu.algebra, [1] * nu.dim, nu.algebra.labels)


def gm_rescale_check(F: AlgebraFamily, c) -> bool:
    """Verify the rescaling symmetry of a degeneration family in the shape
    (1, x, V): the map 1 -> 1, x -> x/c^4, v -> v/c^2 must transport the
    fiber at 1 isomorphically onto the fiber at c^2."""
    f = F.field
    c = f.scalar(c)
    if not c:
        raise ZeroScalar("rescaling needs a nonzero scalar")
    d = F.dim
    if d < 2:
        raise BadShape("family is too small to have the (1, x, V) shape")
    one_vec = tuple(1 if i == 0 else 0 for i in range(d))
    if F.unit is None or tuple(
        x.constant_value() if x.is_constant() else None for x in F.unit
    ) != tuple(f.scalar(v) for v in one_vec):
        raise BadShape("unit must be the first basis vector")
    zero = TPoly(f)
    for j in range(1, d):
        if F.c[1][j] != tuple([zero] * d):
            raise BadShape("x must annihilate x and V")
    for i in range(2, d):
        for j in range(2, d):
            if F.c[i][j][0]:
                raise BadShape("V products may not hit the unit component")
    A1 = F.at(1, validate=False)
    A2 = F.at(c * c, validate=False)
    s = [f.one, (c**4).inverse()] + [(c * c).inverse()] * (d - 2)
    # the basis s_i e_i of the fiber at c^2 must have the table of the fiber at 1
    P = [[s[i] if i == j else f.zero for j in range(d)] for i in range(d)]
    return base_change(A2, P).c == A1.c
