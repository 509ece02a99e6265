"""Oriented Gorenstein structure on finite algebras.

Orientations and their bilinear pairings, the Gorenstein decision procedure,
augmentations and socle generators, the equivalence between isotropically
augmented algebras and non-unital ones (decompose/unitalize), connected
sums, hyperbolic algebras, the bridge to symmetric bilinear forms, surgery,
and the Rees degeneration family.

An ``OrientedAlgebra`` keeps the integer read of its pairing B_phi
(``A.pairing``: Gram rows G over a scale, ints mod p or integers at p = 0),
made by its one constructor; non-degeneracy is one ``linalg.raw_det`` on G,
and the public ``form`` is boxed once from it.  The consumers of B_phi work
on G: a socle generator is one ``raw_rref`` of [L_e·G | scale·e];
``_split`` forms x·G, 1·G, V = ker([x; 1]·G) and V·G·V^T on integer rows
over their scales, and ``decompose_augmented``'s projection is written on
them; the unit-line surgery of ``rees_family`` and ``surgery_inverse`` gives
S, S·G and D = S·G·S^T, x is one ``raw_rref`` of [phi | 1; S·G | 0], the
rows [1; S; x] go raw to the table with the unit e_0, and the Rees family
Gram is written in closed form, [[0, 0, 1], [0, D, 0], [1, 0, B(x, x) t^2]].

Connected sums and the homotopies of ``families.homotopy_families`` share
``_consum_core``, which works on raw values in closed form: it reads e1, e2,
the units, the socle generators and the orientations once (the right
factor's by power of t, for the robber family), writes the fiber-product
rows R (the joint unit, then e_c - (e_c/e_j)·e_j per side), the coordinate
map C = P - f ⊗ w of the quotient by the socle difference w, and a
functional's values on the rows (phi·u on the unit row, phi_c -
(e_c/e_j)·phi_j on a kernel row), hands R and C to ``_table_on_rows`` as
integers, and boxes the orientation, augmentations and unit once.

Each fact is checked where it enters, by a constructor or an entry point.
A builder whose output holds by construction fills it in via ``_trusted``,
which checks nothing, and its docstring says why; the tests assert what is
not checked at run time (tests/test_trusted_builders.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from . import linalg
from .algebra import (
    AlgebraFamily,
    FiniteAlgebra,
    Subspace,
    _box_plane,
    _constant_planes,
    _on_basis,
    _raw_ann,
    _table_on_rows,
)
from .errors import (
    BadUnit,
    Degenerate,
    DimensionMismatch,
    FieldMismatch,
    NotIsotropic,
    NotIsotropicUnit,
    Singular,
)
from .forms import BilinearForm, FormFamily, _form_of, _line_surgery, is_nondegenerate
from .poly import MultiPoly, det_multipoly
from .scalar import Field, Scalar, TPoly


def b_phi(A: FiniteAlgebra, phi) -> BilinearForm:
    """The pairing (x, y) -> phi(x*y) attached to a functional phi, on A's read."""
    return _form_of(A.field, *_pairing(A, A.coerce_vector(phi)))


def _pairing(A: FiniteAlgebra, phi):
    """The integer read of b_phi: its Gram rows G over a scale (ints mod p,
    or integers at p = 0, the Gram entries times the scale), from
    ``A.pairing``."""
    slices, scale = A.pairing(phi)
    return (slices[0][1] if slices else [[0] * A.dim for _ in range(A.dim)]), scale


def _trusted(cls, **fields):
    """A cls holding ``fields`` as given, with none of its checks run."""
    out = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


class OrientedAlgebra:
    """A unital algebra with a functional making b_phi non-degenerate.

    It keeps the integer read of its pairing (``_pairing``: Gram rows G over
    a scale), from which ``form`` is boxed once and on which non-degeneracy
    is one ``linalg.raw_det``; the socle solves, the split and the Rees
    family work on G, not on ``form``.
    """

    __slots__ = ("algebra", "phi", "form", "_read")

    def __init__(self, algebra: FiniteAlgebra, phi):
        if not algebra.is_unital:
            raise BadUnit("orientations require a unital algebra")
        self._fill(algebra, algebra.coerce_vector(phi), True)

    @classmethod
    def _on(cls, algebra: FiniteAlgebra, phi: tuple, check: bool):
        """The oriented algebra of a unital algebra and a tuple of Scalars
        phi, its non-degeneracy checked only when ``check``."""
        out = object.__new__(cls)
        out._fill(algebra, phi, check)
        return out

    def _fill(self, algebra, phi, check):
        G, scale = _pairing(algebra, phi)
        if check and not linalg.raw_det([row[:] for row in G], algebra.field.characteristic):
            raise Degenerate("phi does not orient the algebra: b_phi is degenerate")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "form", _form_of(algebra.field, G, scale))
        object.__setattr__(self, "_read", (G, scale))

    def __setattr__(self, *a):
        raise AttributeError("OrientedAlgebra is immutable")

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def phi_of(self, v) -> Scalar:
        return linalg.sum_dot(self.phi, self.algebra.coerce_vector(v))

    def __eq__(self, other):
        return (
            isinstance(other, OrientedAlgebra)
            and self.algebra == other.algebra
            and self.phi == other.phi
        )

    def __repr__(self):
        return f"OrientedAlgebra(dim {self.dim} over {self.field})"

    def serialize(self) -> dict:
        out = self.algebra.serialize()
        out["orientation"] = {l: str(x) for l, x in zip(self.algebra.labels, self.phi)}
        return out


@dataclass(frozen=True)
class NonUnitalOriented:
    """A non-unital algebra with a compatible non-degenerate pairing."""

    algebra: FiniteAlgebra
    form: BilinearForm

    def __post_init__(self):
        A, B = self.algebra, self.form
        if A.is_unital:
            raise BadUnit("expected a non-unital algebra")
        if A.dim != B.dim or A.field != B.field:
            raise DimensionMismatch("algebra and form do not match")
        if not is_nondegenerate(B):
            raise Degenerate("pairing is degenerate")
        # P[i][j][k] = L L_B B(e_i e_j, e_k); B is symmetric, so L L_B B(e_i, e_j e_k) = P[j][k][i]
        p, zeros = A.field.characteristic, [[0] * A.dim] * A.dim
        (gram,), _ = linalg.raw_slices([B.gram], p)
        P = [dict(linalg.slice_mul(plane, gram, p)).get(0, zeros) for plane in A.raw[0][:-1]]
        for i in range(A.dim):
            for j in range(A.dim):
                for k in range(j, A.dim):
                    if P[i][j][k] != P[j][k][i]:
                        raise Degenerate(
                            f"pairing is not multiplication-compatible at ({i},{j},{k})"
                        )

    @property
    def dim(self) -> int:
        return self.algebra.dim


@dataclass(frozen=True)
class Augmented:
    """An oriented algebra together with an augmentation vector."""

    oa: OrientedAlgebra
    e: tuple

    def __post_init__(self):
        object.__setattr__(self, "e", self.oa.algebra.coerce_vector(self.e))
        if not augmentation_check(self.oa.algebra, self.e):
            raise BadUnit("e is not an algebra map to the base field")

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.oa.algebra


def augmentation_check(A, e) -> bool:
    """Whether e(1) = 1 and e is multiplicative on all basis pairs, on A's read.

    A may also be an AlgebraFamily with e a vector over k[t]; the checks are
    then exact polynomial identities, so e is an algebra map to k[t].
    """
    e = A.coerce_vector(e)
    if A.unit is None:
        return False
    d, p = A.dim, A.field.characteristic
    (*_, unit), L = A.raw
    (col,), L_e = linalg.raw_slices([[[x] for x in e]], p)
    # raw values: the table and the unit times L, e times L_e
    one = [(s, X[0][0]) for s, X in linalg.slice_mul(unit, col, p) if X[0][0]]
    if one != [(0, L * L_e)]:
        return False
    e = [x for x, in linalg.poly_entries(col, d, 1)]
    # entry (i, j) is e(e_i e_j) times L L_e; e_i e_j is times L_e²
    values = linalg.poly_entries(A.contract(col), d, d)
    for i in range(d):
        for j in range(i, d):
            if [L_e * v for v in values[i][j]] != [L * v for v in linalg.poly_mul(e[i], e[j], p)]:
                return False
    return True


def enumerate_augmentations(A: FiniteAlgebra, budget: int = 10**6) -> list:
    """All algebra maps A -> F_p, by exhaustive search (p^dim <= budget).

    Over infinite fields only verification is offered; use
    augmentation_check there.
    """
    p = A.field.characteristic
    if p == 0:
        raise FieldMismatch("exhaustive search needs a finite field")
    if p**A.dim > budget:
        raise BadUnit(f"p^dim = {p ** A.dim} exceeds the search budget")
    out = []
    from itertools import product as iproduct

    for values in iproduct(range(p), repeat=A.dim):
        e = tuple(A.field.scalar(v) for v in values)
        if augmentation_check(A, e):
            out.append(e)
    return out


def socle_generator(oa: OrientedAlgebra, e):
    """The adjoint vector x with B_phi(x, y) = e(y) for all y."""
    return _socle(oa, oa.algebra.coerce_vector(e))[0]


def isotropy_check(oa: OrientedAlgebra, e) -> bool:
    """Whether the augmentation is isotropic: e(x) = 0 for x = e*(1), the
    socle generator.  Ann(ker e) is the line of x, so this is the criterion
    Ann(ker e) <= ker e; the tests assert that the two agree."""
    return not _socle(oa, oa.algebra.coerce_vector(e))[1]


def _socle(oa: OrientedAlgebra, e: tuple):
    """The socle generator x of e (a tuple of Scalars), boxed, and e(x) raw
    (zero or not is what its callers read).  With G the Gram read over
    ``scale`` and e read as integers E over L_e, G·x = scale·E / L_e is one
    raw_rref of [L_e·G | scale·E]; G is non-degenerate, so column j's pivot
    row ends in x_j."""
    (G, scale), p = oa._read, oa.field.characteristic
    [E], L_e = linalg._integer_rows([[x.value for x in e]])
    work = [[L_e * g for g in row] + [scale * b] for row, b in zip(G, E)]
    linalg.raw_rref(work, p)
    x = [row[-1] for row in work]
    ex = sum(map(mul, E, x))
    return linalg._box(oa.field, [x])[0], ex % p if p else ex


def _phi_at_unit(oa: OrientedAlgebra):
    """phi(1), raw: an int mod p, or a Fraction at p = 0."""
    p = oa.field.characteristic
    v = sum(a.value * b.value for a, b in zip(oa.phi, oa.algebra.unit))
    return v % p if p else v


@dataclass(frozen=True)
class Decomposition:
    """Result of splitting off the canonical double point."""

    lam: Scalar  # phi(1)
    nonunital: NonUnitalOriented
    adapted_basis: tuple  # rows (1, x, v_1, ..., v_{d-2}) in old coordinates


def _split(oa: OrientedAlgebra, e):
    """The split of an isotropically augmented algebra along span(1, x).

    Returns lam = phi(1), V's form, V's labels, the adapted basis (1, x, V)
    and the raw values it came from: the rows (1, x, V) (ints mod p, or at
    p = 0 ints and Fractions), then as integers (x·G, 1·G, L·s), (x, 1, L)
    and (V, L_V), each over the scale it ends with, for G the Gram read over
    s and x, 1 read over one L.  V = ker([x; 1]·G) is the orthogonal
    complement of span(1, x), its rows in RREF; its form V·G·V^T / (L_V² s)
    (G is symmetric) is non-degenerate, span(1, x) being a hyperbolic plane
    of b_phi for an augmentation e (B(1, x) = e(1)).
    """
    A, f = oa.algebra, oa.field
    x, ex = _socle(oa, A.coerce_vector(e))
    if ex:  # isotropy_check, on the one solve
        raise NotIsotropic("augmentation is not isotropic")
    p, (G, s) = f.characteristic, oa._read
    xr, ur = [v.value for v in x], [v.value for v in A.unit]
    XU, L = linalg._integer_rows([xr, ur])
    gx, g1 = linalg.raw_mul(XU, G, p, 0)
    Vr = linalg.raw_kernel([gx, g1], A.dim, p)
    VI, L_V = linalg._integer_rows(Vr)
    gramV = linalg.raw_mul(linalg.raw_mul(VI, G, p, 0), linalg.transpose(VI), p, 0)
    labels = tuple(f"v{i + 1}" for i in range(len(Vr)))
    adapted = linalg.mat([A.unit, x] + list(linalg._box(f, Vr)))
    lam = _scalar(f, _phi_at_unit(oa))
    raw = [ur, xr, *Vr], (gx, g1, L * s), (*XU, L), (VI, L_V)
    return lam, _form_of(f, gramV, L_V**2 * s), labels, adapted, raw


def _scalar(field: Field, v, scale: int = 1):
    """The Scalar of v / scale, v a raw value: an int (scale 1) mod p, or at
    p = 0 an int or a Fraction."""
    p = field.characteristic
    return Scalar(field, v % p if p else Fraction(v, scale))


def decompose_augmented(oa: OrientedAlgebra, e) -> Decomposition:
    """Split an isotropically augmented algebra as k[x]/x^2 (+) V.

    V is the orthogonal complement of span(1, x) (see ``_split``); its
    multiplication is the ambient one followed by orthogonal projection back
    onto V, w -> w - B(w, x) 1 - (B(w, 1) - lam B(w, x)) x, which lands in V
    for every w, as B(x, x) = e(x) = 0, B(1, x) = e(1) = 1 and B(1, 1) = lam.
    V's rows are in RREF, pivot columns P, so V's coordinates are the entries
    at P: C, the projection then these, needs no elimination, and on the
    split's integers (x·G and 1·G over L·s, x and 1 over L, lam = n/m) it is
    C·L²·s·m = L²·s·m·I - m·(x·G) ⊗ 1 - (m·(1·G) - n·(x·G)) ⊗ x, taken
    over its least scale at p = 0.  V is m/(x)
    for the ideals m = ker e and (x) (a x = e(a) x), so valid, as is its
    form (see ``_split``); only e is checked.
    """
    if not augmentation_check(oa.algebra, e):
        raise BadUnit("e is not an algebra map to the base field")
    lam, form, labels, adapted, (_, (gx, g1, Ls), (X, U, L), (R, L_R)) = _split(oa, e)
    A, f = oa.algebra, oa.field
    p = f.characteristic
    n, m = (lam.value, 1) if p else lam.value.as_integer_ratio()
    P = [next(c for c, v in enumerate(row) if v) for row in R]
    M = L * Ls * m
    C = [[M * (j == k) - m * gx[j] * U[k] - (m * g1[j] - n * gx[j]) * X[k] for k in P]
         for j in range(A.dim)]
    if p:
        C = [[v % p for v in row] for row in C]
    else:  # over the least scale, as the read of V's table is kept
        g = gcd(M, *chain.from_iterable(C))
        C, M = [[v // g for v in row] for row in C], M // g
    planes, scale = _table_on_rows(f, [A], R, L_R, [(0, C)], M)
    alg = FiniteAlgebra.on_read(planes, scale, f, labels, validate=False)
    return Decomposition(lam, _trusted(NonUnitalOriented, algebra=alg, form=form), adapted)


def unitalize(lam, nu: NonUnitalOriented) -> Augmented:
    """Rebuild the augmented oriented algebra k[x]/x^2 (+) V from (lam, V, B).

    Products follow (r+sx, v)(r'+s'x, v') =
    (rr' + (sr'+s'r+B(v,v')) x, r'v + rv' + vv'), with phi(r+sx, v) = r lam + s
    and e(r+sx, v) = r.  The table is built on the reads of B (scale L_B) and
    of V (scale L_V) over S = lcm(L_V, L_B): plane 0 is S·I, row 0 of plane k
    is S e_k, and row v_j of plane v_i is S·(0, B(v_i, v_j), v_i v_j).
    The table and phi are checked; e is an algebra map, isotropic as e(x) = 0.
    """
    f = nu.algebra.field
    lam, m, o, z = f.scalar(lam), nu.dim, f.one, f.zero
    (G,), L_B = linalg.raw_slices([nu.form.gram], f.characteristic)
    G, V = dict(G).get(0, [[0] * m] * m), _constant_planes(nu.algebra.raw, m, m)
    L_V = nu.algebra.raw[1]
    d, S = m + 2, lcm(L_V, L_B)
    eye, zero = [[S * (j == k) for k in range(d)] for j in range(d)], [0] * d
    planes = [eye, [eye[1]] + [zero] * (d - 1)] + [
        [eye[2 + i], zero] + [[0, g * (S // L_B), *(x * (S // L_V) for x in row)]
                              for g, row in zip(G[i], V[i])] for i in range(m)]
    labels = ("1", "x") + tuple(nu.algebra.labels)
    alg = FiniteAlgebra.on_read([[(0, X)] for X in planes], S, f, labels, [1] + [0] * (d - 1))
    phi = tuple([lam, o] + [z] * m)
    e = tuple([o] + [z] * (m + 1))
    return _trusted(Augmented, oa=OrientedAlgebra._on(alg, phi, True), e=e)


def form_to_algebra(B: BilinearForm) -> Augmented:
    """The isotropically augmented algebra attached to a non-degenerate form:
    unitalize(0, (V, B)) with the zero multiplication on V, whose read has
    no slices, which any form B is compatible with.  B is checked."""
    if not is_nondegenerate(B):
        raise Degenerate("form is degenerate")
    f, m = B.field, B.dim
    alg = FiniteAlgebra.on_read([[] for _ in range(m)], 1, f, [f"v{i + 1}" for i in range(m)],
                                validate=False)
    return unitalize(f.zero, _trusted(NonUnitalOriented, algebra=alg, form=B))


def hyp_algebra(A: FiniteAlgebra) -> OrientedAlgebra:
    """The square-zero extension of A by its dual, oriented hyperbolically.

    Products: (a, f)(b, g) = (ab, a.g + b.f) with (a.f)(b) = f(ab); the
    orientation evaluates the functional part at the unit, and its Gram
    matrix in the basis (e_i; e_i^*) is exactly [[0, I], [I, 0]], not re-checked.
    The table is built on A's read C, at its scale, and checked.
    """
    if not A.is_unital:
        raise BadUnit("hyp_algebra needs a unital input")
    f, d = A.field, A.dim
    C, zero = _constant_planes(A.raw, d, d), [0] * d
    # (e_i, 0) * (0, e_j^*) = (0, e_i . e_j^*), value at e_l is c[i][l][j]
    dual = [[zero + [C[i][l][j] for l in range(d)] for j in range(d)] for i in range(d)]
    planes = [[row + zero for row in C[i]] + dual[i] for i in range(d)]
    planes += [[dual[i][j] for i in range(d)] + [zero + zero] * d for j in range(d)]
    unit = tuple(A.unit) + (f.zero,) * d
    phi = (f.zero,) * d + tuple(A.unit)
    labels = tuple(A.labels) + tuple(l + "*" for l in A.labels)
    alg = FiniteAlgebra.on_read([[(0, X)] if any(map(any, X)) else [] for X in planes],
                                A.raw[1], f, labels, unit)
    return OrientedAlgebra._on(alg, phi, False)


# ---------------------------------------------------------------------------
# connected sums (shared core: also drives the family version over k[t])


@dataclass(frozen=True)
class _ConsumData:
    labels: tuple
    read: tuple  # the raw plane slices of the table and their scale
    unit: tuple
    phi: tuple
    e_left: tuple  # the gluing augmentation, through the left factor
    e_right_of: object  # callable: right-side functional -> quotient vector
    project: object  # callable: fiber-product vector -> quotient coordinates


def _powers(v):
    """A vector of Scalars or TPolys as raw vectors, one per power of t (at
    least one): entry c of the s-th is the t^s coefficient of v[c]."""
    coeffs = [[a.value for a in x.coeffs] if isinstance(x, TPoly) else [x.value] for x in v]
    return [[c[s] if s < len(c) else 0 for c in coeffs]
            for s in range(max([1, *map(len, coeffs)]))]


def _consum_core(field, A1, unit1, A2, unit2, e1, e2, x1, x2, phi1, phi2):
    """Glue two augmented algebras along their augmentations and kill the
    difference of the socle generators, on raw values in closed form.

    The right factor's socle generator x2 and orientation phi2 may be TPolys
    (a homotopy's robber family); everything else is constant.  The inputs
    are read once (``_powers`` for x2 and phi2: raw vectors by power of t),
    and only phi, the unit and the labels are boxed on the way out; no
    elimination runs.  The basis is the joint unit (u1, u2), then (k, 0)
    and (0, k') for the RREF bases of ker e1 and ker e2: for e with last
    nonzero entry e_j, the rows e_c - (e_c/e_j) e_j, c != j, pivots at every
    column but j.  As e1(u1) = e2(u2) = 1 (Augmented checks e(1) = 1; the
    robber's constant augmentation has it), v = (a, b) has the coordinates
    c0 = e1(a), then a - c0 u1 and b - c0 u2 at those pivots, and lies in
    the fiber product iff e1(a) = e2(b).  w, the coordinates of x1 - x2,
    carries powers of t only on the robber's columns; ``elim`` is its last
    coordinate that is a nonzero constant (the labels name it), and
    reducing by w maps coordinates v to v - (v[elim]/w[elim]) w without
    elim.  The coordinate map C of the quotient is then, for column j,
    P[j] - f[j] w on the kept coordinates, where P[j] = e1[j]·u + (the unit
    vector at column j's coordinate; none for a kernel's dropped column),
    u = (1, -u1 at piv1, -u2 at piv2), and f[j] = P[j][elim]/w[elim]: a
    constant, so only w's powers of t reach C.  The kept rows R and C go to
    ``_table_on_rows`` as integers over their scales; products of the rows
    stay in the fiber product, as e1 and e2 are algebra maps.
    A functional (phi1, phi2) takes phi1·u1 + phi2·u2 on the unit row and
    phi_c - (e_c/e_j)·phi_j on a kernel row, so phi1 + phi2 descends (phi(x)
    = e(1) = 1 for both socle generators), e_left is (1, 0, ..., 0) and
    ``e_right_of`` is the same rule with phi1 = 0.  ``project`` reads
    coordinates in the same closed form on boxed entries (TPolys allowed),
    with w boxed on its first call.
    """
    p, d1, d2 = field.characteristic, A1.dim, A2.dim
    n = d1 + d2 - 1
    E1, E2, U1, U2, X1, F1 = ([x.value for x in v] for v in (e1, e2, unit1, unit2, x1, phi1))
    X2 = _powers(x2)
    j1, j2 = (max(c for c, x in enumerate(e) if x) for e in (E1, E2))
    inv = (lambda x: pow(x, -1, p)) if p else (lambda x: 1 / Fraction(x))
    r1, r2 = inv(E1[j1]), inv(E2[j2])
    piv1, piv2 = [c for c in range(d1) if c != j1], [c for c in range(d2) if c != j2]
    # column c's coordinate, None at a kernel's dropped column
    coord = [None if c == j1 else 1 + c - (c > j1) for c in range(d1)]
    coord += [None if c == j2 else d1 + c - (c > j2) for c in range(d2)]

    def red(vals):
        return [v % p for v in vals] if p else vals

    # w = split(x1 - x2), by power of t, and that x1 - x2 lies in the fiber product
    c0 = sum(map(mul, E1, X1))
    w = [red([c0, *(X1[c] - c0 * U1[c] for c in piv1),
              *(-X2[0][c] - c0 * U2[c] for c in piv2)])]
    w += [red([0] * d1 + [-xs[c] for c in piv2]) for xs in X2[1:]]
    if any(red([c0 + sum(map(mul, E2, X2[0]))] + [sum(map(mul, E2, xs)) for xs in X2[1:]])):
        raise Singular("vector is not in the row space")
    # a nonzero constant: x1 != 0 is constant and in ker e1, so not at the unit
    elim = max(i for i in range(n) if w[0][i] and not any(ws[i] for ws in w[1:]))
    keep = [i for i in range(n) if i != elim]
    g = inv(w[0][elim])

    R = [U1 + U2]
    for c in piv1:
        R.append([int(k == c) for k in range(d1)] + [0] * d2)
        R[-1][j1] = -E1[c] * r1
    for c in piv2:
        R.append([0] * d1 + [int(k == c) for k in range(d2)])
        R[-1][d1 + j2] = -E2[c] * r2
    del R[elim]
    # C = P - f w on the kept coordinates: column j is e1[j] times u reduced
    # by w, plus the reduced unit vector at its coordinate (the unit vector
    # itself, or -w/w[elim] at elim); as integers, over the scales L_e of e1
    # and L of the two reduced rows
    u = [1, *(-U1[c] for c in piv1), *(-U2[c] for c in piv2)]
    fu, S = u[elim] * g, len(w)
    reduced, L = linalg._integer_rows(
        [red([(u[i] if s == 0 else 0) - fu * ws[i] for i in keep]) for s, ws in enumerate(w)]
        + [red([-g * ws[i] for i in keep]) for ws in w])
    [E], L_e = linalg._integer_rows([E1])
    C = []
    for s, us, ws in zip(range(S), reduced, reduced[S:]):
        X = []
        for j, k in enumerate(coord):
            row = [E[j] * x for x in us] if j < d1 and E[j] else [0] * (n - 1)
            if k == elim:
                row = [a + L_e * b for a, b in zip(row, ws)]
            elif k is not None and s == 0:
                row[k - (k > elim)] += L_e * L
            X.append(red(row))
        if any(map(any, X)):
            C.append((s, X))
    R, L_R = linalg._integer_rows([red(r) for r in R])
    read = _table_on_rows(field, [A1, A2], R, L_R, C, L_e * L)

    def on_rows(left, right):
        """A functional's raw values on the kept rows, by power of t: ``left``
        on the left factor (raw constants, or None for 0), ``right`` on the
        right one (raw vectors by power of t)."""
        out = []
        for s, rs in enumerate(right):
            ls = left if s == 0 else None
            vals = [(sum(map(mul, ls, U1)) if ls else 0) + sum(map(mul, rs, U2))]
            vals += [ls[c] - E1[c] * r1 * ls[j1] if ls else 0 for c in piv1]
            vals += [rs[c] - E2[c] * r2 * rs[j2] for c in piv2]
            del vals[elim]
            out.append(vals)
        return out

    def box(vals, poly):
        """Raw values by power of t as Scalars, or as TPolys when ``poly``,
        equal values sharing one object (``_box_plane``)."""
        rows, L = linalg._integer_rows([red(v) for v in vals])
        return _box_plane(field, [(s, [r]) for s, r in enumerate(rows) if any(r)], L,
                          TPoly(field) if poly else field.zero, (1, len(rows[0])), {})[0]

    def is_poly(v):
        return any(isinstance(x, TPoly) for x in v)

    phi = box(on_rows(F1, _powers(phi2)), is_poly(phi2))
    unit = (field.one,) + (field.zero,) * (n - 2)

    def e_right_of(functional):
        return box(on_rows(None, _powers(functional)), is_poly(functional))

    labels = ["1", *(f"a{i + 1}" for i in range(d1 - 1)), *(f"b{i + 1}" for i in range(d2 - 1))]
    del labels[elim]
    boxed = []  # w and 1/w[elim], boxed on project's first call

    def project(ambient):
        """The quotient coordinates of a fiber-product vector (entries
        Scalars or TPolys), by split and reduce on boxed values; Singular off
        the fiber product."""
        if not boxed:  # w typed as split gives it: TPolys on a homotopy's right
            boxed[:] = [box([w[0][:d1]], False) + box([ws[d1:] for ws in w], is_poly(x2)),
                        field.scalar(g)]
        wb, gb = boxed
        ambient = tuple(ambient)
        a, b = ambient[:d1], ambient[d1:]
        c = linalg.sum_dot(e1, a)
        if c - linalg.sum_dot(e2, b):
            raise Singular("vector is not in the row space")
        coords = (c, *(a[k] - c * unit1[k] for k in piv1), *(b[k] - c * unit2[k] for k in piv2))
        factor = coords[elim] * gb
        if factor:
            coords = tuple(x - factor * y for x, y in zip(coords, wb))
        return tuple(coords[i] for i in keep)

    return _ConsumData(tuple(labels), read, unit, phi, unit, e_right_of, project)


def connected_sum(t1: Augmented, t2: Augmented) -> Augmented:
    """Connected sum of two isotropically augmented oriented algebras.

    The result has dimension d1 + d2 - 2, carries phi1 + phi2, and the
    common augmentation.  Valid by construction, so not re-validated: the
    fiber product is an algebra, x1 - x2 spans an ideal of it (a x = e(a) x),
    phi1 + phi2 orients it, e descends, and e1(x1) = 0 keeps e isotropic.
    """
    if t1.oa.field != t2.oa.field:
        raise FieldMismatch("summands live over different fields")
    (x1, ex1), (x2, ex2) = (_socle(t.oa, t.e) for t in (t1, t2))
    if ex1 or ex2:  # isotropy_check, per summand
        raise NotIsotropic("connected sum needs isotropic augmentations")
    f = t1.oa.field
    data = _consum_core(
        f,
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
    alg = FiniteAlgebra.on_read(*data.read, f, data.labels, data.unit, validate=False)
    return _trusted(Augmented, oa=OrientedAlgebra._on(alg, data.phi, False), e=data.e_left)


# ---------------------------------------------------------------------------
# surgery and the Rees family


def surgery_inverse(oa: OrientedAlgebra) -> BilinearForm:
    """Surgery of B_phi along the unit line of an isotropic oriented algebra
    (phi(1) = 0); inverse to form_to_algebra up to congruence.  It runs on
    the Gram read G over s: D = S·G·S^T over L_S²·s."""
    if _phi_at_unit(oa):
        raise NotIsotropicUnit("phi(1) must vanish")
    # b_phi is non-degenerate, and b_phi(1, 1) = phi(1) = 0
    (G, s), p = oa._read, oa.field.characteristic
    _, _, D, L_S = _line_surgery(G, p, [v.value for v in oa.algebra.unit])
    return _form_of(oa.field, D, L_S**2 * s)


@dataclass(frozen=True)
class ReesResult:
    """The Rees degeneration of an isotropic oriented algebra."""

    family: AlgebraFamily  # basis (1, e_1 t, ..., e_{d-2} t, x t^2)
    adapted_basis: tuple  # rows (1, e_1, ..., e_{d-2}, x) in old coordinates
    gram: FormFamily  # [[0,0,1],[0,D,0],[1,0,phi(x^2) t^2]]
    surgered: BilinearForm  # the form D on the middle block


def rees_family(oa: OrientedAlgebra) -> ReesResult:
    """One-parameter family from an isotropic oriented algebra to its
    associated graded along k <= k-perp <= A.

    The basis (1, e_i t, x t^2) has e_i spanning a complement of the unit
    line inside ker(phi) and x chosen with phi(x) = 1, phi(x e_i) = 0 (exact
    linear solving, free coordinates zeroed).  The fiber at t=1 is the input
    in the adapted basis; the fiber at t=0 is form_to_algebra of the
    surgered form, with the x-line as socle.

    All of it runs on the Gram read G over s: the unit-line surgery gives
    the rows S of the e_i, S·G and D = S·G·S^T (``forms._surgery``); x is
    one raw_rref of [phi | 1; S·G | 0]; the rows [1; S; x] and their inverse
    go raw to the table (``algebra._on_basis``, the unit e_0, as row 0 is
    the old unit).  In that basis phi reads the x coordinate, so the family
    Gram is [[0, 0, 1], [0, D, 0], [1, 0, B(x, x) t^2]] by weights (0, 1, 2):
    written in closed form, D boxed once for it and for ``surgered``.
    """
    A, f = oa.algebra, oa.field
    if _phi_at_unit(oa):
        raise NotIsotropicUnit("phi(1) must vanish")
    # b_phi is non-degenerate, and b_phi(1, 1) = phi(1) = 0
    (G, s), p, d = oa._read, f.characteristic, A.dim
    ur = [v.value for v in A.unit]
    S, SG, D, L_S = _line_surgery(G, p, ur)
    # x: phi(x) = 1 and B(x, e_i) = 0, the free coordinate 0; the system has
    # rank d - 1, as phi = B(1, -) and S·G are independent rows
    [F], L_phi = linalg._integer_rows([[v.value for v in oa.phi]])
    work = [F + [L_phi]] + [row + [0] for row in SG]
    x = [0 if p else Fraction(0)] * d
    for row, c in zip(work, linalg.raw_rref(work, p)):
        x[c] = row[d]
    labels = ["1"] + [f"e{i + 1}*t" for i in range(len(S))] + ["x*t^2"]
    zero, one = f.zero, f.one
    U = _on_basis(A, [ur, *S, x], labels, (one,) + (zero,) * (d - 1))
    fam = _graded_family(U, [0] + [1] * len(S) + [2], labels,
                         orientation=[zero] * (d - 1) + [one])
    surgered = _form_of(f, D, L_S**2 * s)
    [X], L_x = linalg._integer_rows([x])
    bxx = sum(map(mul, X, linalg.raw_mul([X], G, p, 0)[0]))
    z, o = TPoly(f), TPoly(f, (one,))
    const = {v: TPoly(f, (v,)) for v in set(chain.from_iterable(surgered.gram))}
    corner = TPoly(f, (zero, zero, _scalar(f, bxx, L_x**2 * s)))
    gram = [(z,) * (d - 1) + (o,)]
    gram += [(z, *map(const.get, row), z) for row in surgered.gram]
    gram.append((o,) + (z,) * (d - 2) + (corner,))
    adapted = (tuple(A.unit),) + linalg._box(f, [*S, x])
    return ReesResult(fam, adapted, FormFamily._on_boxed(f, tuple(gram)), surgered)


def _graded_family(A: FiniteAlgebra, weights, labels, **extra) -> AlgebraFamily:
    """The family whose table entry (i, j, k) is A's times t^(w_i + w_j - w_k),
    for weights w of A's basis (0 on a unit): the fiber at 1 is A, the one at
    0 its associated graded.  A's read, regraded, is handed over; ``extra``
    (orientation, augmentations) rides along.  Valid if A is: each identity
    gains one power of t on both sides, t^0 in the unit law."""
    d = A.dim
    (*planes, _), L = A.raw
    graded = []
    for i, plane in enumerate(planes):
        by_exp = {}
        for _, X in plane:
            for j, row in enumerate(X):
                for k, v in enumerate(row):
                    if v:
                        exp = weights[i] + weights[j] - weights[k]
                        if exp < 0:  # pragma: no cover
                            raise Singular("filtration is not multiplicative")
                        Y = by_exp.get(exp)
                        if Y is None:  # a matrix for the plane's slice at t^exp, made once
                            Y = by_exp[exp] = [[0] * d for _ in range(d)]
                        Y[j][k] = v
        graded.append(sorted(by_exp.items()))
    return AlgebraFamily.on_read(graded, L, A.field, labels, A.unit, validate=False, **extra)


# ---------------------------------------------------------------------------
# the Gorenstein decision procedure


@dataclass(frozen=True)
class GorensteinResult:
    status: str  # "oriented" | "gorenstein" | "not_gorenstein"
    witness: tuple | None
    certificate: MultiPoly | None  # the symbolic determinant, when expanded
    trials: int
    nilradical: Subspace | None = None  # J, when not_gorenstein
    socle: Subspace | None = None  # Soc = Ann(J), when not_gorenstein

    def serialize(self, labels=None) -> dict:
        def labelled(v):
            return {l: str(x) for l, x in zip(labels or [f"e{i}" for i in range(len(v))], v)}

        out = {"status": self.status, "trials": self.trials}
        if self.witness is not None:
            out["witness"] = labelled(self.witness)
        if self.certificate is not None:
            out["certificate"] = _symbolic_certificate(self.certificate)
        if self.nilradical is not None:
            out["certificate"] = {
                "nilradical": [labelled(v) for v in self.nilradical.rows],
                "socle": [labelled(v) for v in self.socle.rows],
            }
        return out


def _symbolic_certificate(D: MultiPoly) -> dict:
    """The report of an expanded symbolic determinant D."""
    return {"symbolic_determinant": str(D), "is_zero": not D}


def _find_nonvanishing(Dpoly: MultiPoly, field: Field):
    """A point where a nonzero polynomial does not vanish, by incremental
    substitution; None when the field is too small to provide one."""
    n = len(Dpoly.variables)
    if field.characteristic == 0:
        deg = Dpoly.total_degree()
        candidates = []
        k = 0
        while len(candidates) <= deg + 1:
            candidates.append(k)
            if k > 0:
                candidates.append(-k)
            k += 1
    else:
        candidates = list(range(field.characteristic))
    point = []
    cur = Dpoly
    for i in range(n):
        for v in candidates:
            sub = cur.substitute(i, field.scalar(v))
            if sub:
                point.append(field.scalar(v))
                cur = sub
                break
        else:
            return None
    return tuple(point)


def _trial_top(p: int) -> int:
    """The largest |a_k| of a seeded trial point: a_k in [0, p), or in
    [-9, 9] over QQ."""
    return p - 1 if p else 9


def _nonsingular_point(field: Field, at, entries, scale: int, names, seed: int, trials: int,
                       symbolic_max_dim: int):
    """The witness search shared by gorenstein_test and tensors.one_generic.

    The pencil M(a) = sum_k a_k M_k, in the variables ``names``, is square,
    and its raw values are scale·M: ``at`` evaluates them packed
    (linalg.pencil, for |a_k| <= _trial_top), and ``entries()`` returns its
    matrix of coefficient lists (entry (r, s) of every M_k), read only by
    the symbolic path.  ``trials`` seeded points a are tried first: each runs
    linalg.raw_det on at(a), which over QQ is the L-scaled integer pencil,
    and det(L·M) = L^d·det M, so a point is taken exactly when M(a) is
    nonsingular.  On failure and when len(names) <= ``symbolic_max_dim``,
    det M is expanded symbolically and, unless it is zero, a nonvanishing
    point is sought by incremental substitution.

    Returns (point or None, the symbolic determinant or None, trials used).
    """
    p = field.characteristic
    m, top = len(names), _trial_top(p)
    rng = random.Random(seed)
    for trial in range(trials):
        a = [rng.randrange(p) if p else rng.randint(-top, top) for _ in range(m)]
        if linalg.raw_det(at(a), p):
            return tuple(field.scalar(x) for x in a), None, trial + 1
    if m > symbolic_max_dim:
        return None, None, trials
    monomials = [tuple(int(v == k) for v in range(m)) for k in range(m)]
    matrix = [[MultiPoly(field, names, {monomials[k]: v if p else Fraction(v, scale)
                                        for k, v in enumerate(coeffs) if v}) for coeffs in row]
              for row in entries()]
    Dpoly = det_multipoly(matrix, field, names)
    return (_find_nonvanishing(Dpoly, field) if Dpoly else None), Dpoly, trials


# rank mod a prime never exceeds the rank over QQ, so a trace form with a
# nonzero determinant mod this prime proves J = 0 without elimination over QQ
_RANK_PRIME = 2**61 - 1


def _table_pencil(A: FiniteAlgebra):
    """The pencil phi -> (phi(e_i e_j)) on A's read (linalg.pencil, strided;
    its values are the Gram matrices times L), good for the seeded trials'
    functionals and for the trace vector, and that vector: entry i is
    tr(L_(e_i)) times L, mod p at p > 0."""
    d, p = A.dim, A.field.characteristic
    table = _constant_planes(A.raw, d, d)
    trace = [sum(plane[j][j] for j in range(d)) for plane in table]
    trace = [t % p for t in trace] if p else trace
    return linalg.pencil(table, p, max([_trial_top(p), *map(abs, trace)]), True), trace


def _nilradical_and_socle(A: FiniteAlgebra, pencil=None):
    """Raw RREF bases of the nilradical J of A and of Soc(A) = Ann(J).

    Both work on A's read: ints mod p, or over QQ the table times a common
    denominator L.  L·c is the table of an algebra isomorphic to A by
    x -> x/L, a scaling, so J and Soc are the same subspaces.

    For p = 0 or p > dim A, J is the radical of the trace form
    (x, y) -> tr(L_xy): on each local factor the trace is the factor's
    length, nonzero in k, times the residue field's trace, which is
    non-degenerate.  Its Gram matrix is the table pencil at the trace vector
    (``pencil``, from _table_pencil, or built here).  For 0 < p <= dim A, J
    is the kernel of the F_p-linear map x -> x^(p^m) with p^m >= dim A, a
    bound on every nilpotency index.
    """
    d = A.dim
    p = A.field.characteristic
    if p == 0 or p > d:
        at, trace = pencil or _table_pencil(A)
        gram = at(trace)
        if p:
            J = linalg.raw_kernel(gram, d, p)
        elif linalg.raw_det([[x % _RANK_PRIME for x in row] for row in gram], _RANK_PRIME):
            J = []
        else:
            J = linalg.raw_kernel(gram, d, 0)
    else:
        # row i of frob is e_i^p, reached by p - 1 products with the plane
        # c[i], each on the plane's rows at v's nonzero entries (v = 0 stays)
        frob = []
        for i, plane in enumerate(_constant_planes(A.raw, d, d)):
            v = [int(j == i) for j in range(d)]
            for _ in range(p - 1):
                nz = [k for k, x in enumerate(v) if x]
                if nz:
                    v = linalg.raw_mul([[v[k] for k in nz]], [plane[k] for k in nz], p, 0)[0]
            frob.append(v)
        power, reach = frob, p
        while reach < d:
            power, reach = linalg.raw_mul(power, frob, p, 0), reach * p
        # x^(p^m) = x·power for x over F_p: J is the left kernel of power
        J = linalg.raw_kernel([list(col) for col in zip(*power)], d, p)
    return J, _raw_ann(A, J)


def gorenstein_test(
    A: FiniteAlgebra, seed: int = 0, trials: int = 64, symbolic_max_dim: int = 8
) -> GorensteinResult:
    """Decide whether some functional orients A, and search for one.

    The decision is exact: A is Gorenstein iff dim Soc(A) = dim A - dim J,
    where J is the nilradical and Soc(A) = Ann(J); in general
    dim Soc(A) >= dim A - dim J, with equality iff the socle of every local
    factor is one-dimensional over its residue field (Eisenbud, Commutative
    Algebra, section 21).  J is linear algebra on the structure table: the
    radical of the trace form tr(L_xy) when p = 0 or p > dim A, else the
    kernel of x -> x^(p^m) with p^m >= dim A.  A not-Gorenstein verdict
    uses no trials and is certified by the bases of J and Soc.

    For a Gorenstein A a witness phi, with B_phi non-degenerate, is sought
    by _nonsingular_point, the search shared with tensors.one_generic, on
    the pencil B_phi = sum_k phi_k c[.][.][k]: ``trials`` seeded random
    functionals first, each evaluated on the packed pencil of A's read (over
    QQ the L-scaled integer pencil) that gave the trace form's Gram matrix
    (_table_pencil); on failure and when dim A <= ``symbolic_max_dim``,
    det(B_phi) is expanded symbolically and a nonvanishing point sought by
    incremental substitution.  Both bound only this search.  When neither
    finds a witness (over a small prime field a witness can be rare), the
    status is "gorenstein": decided, with no witness.
    """
    if not A.is_unital:
        raise BadUnit("the Gorenstein test needs a unital algebra")
    f = A.field
    d = A.dim
    pencil = _table_pencil(A)
    J, soc = _nilradical_and_socle(A, pencil)
    if len(soc) != d - len(J):  # J and Soc come from raw_kernel, in RREF
        return GorensteinResult("not_gorenstein", None, None, 0,
                                *(Subspace.on_rref(d, linalg._box(f, S), f) for S in (J, soc)))
    names = tuple(f"p{i}" for i in range(d))
    point, Dpoly, used = _nonsingular_point(
        f, pencil[0], lambda: _constant_planes(A.raw, d, d), A.raw[1], names, seed, trials,
        symbolic_max_dim)
    return GorensteinResult("gorenstein" if point is None else "oriented", point, Dpoly, used)
