"""Structure tensors, the big Coppersmith-Winograd tensor, 1-genericity,
Strassen slice commutativity, and explicit degenerations.

Border rank itself is never computed; minimal border rank enters only
through its algebraic characterization (1-generic with commuting
normalized slices), and "degenerates to CW_q" is certified by an explicit
one-parameter family.  The reduced case reads its flat limit off one RREF
of the points' evaluation matrix (Möller–Buchberger), with no Gröbner basis.

A Tensor3 holds the read of its layers from construction (``raw``, as for
an algebra's table; ``structure_tensor`` hands over the algebra's), and the
contraction, the 1-genericity pencil and Strassen's test work from it alone;
``entries`` is boxed on first read of it, as an algebra's ``c`` is.
A_q (``aq_algebra``) is written down from its closed form, not compiled
from its presentation; the tests compile the presentation by Buchberger
and check both against CW_q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import linalg
from .algebra import AlgebraFamily, FiniteAlgebra, _constant_planes, _on_basis, _Read
from .errors import (
    BadParameter,
    BoundTooSmall,
    DimensionMismatch,
    GenericityFailure,
    ShapeMismatch,
    Singular,
    SingularWitness,
    ZeroInput,
)
from .forms import BilinearForm, WittInvariants, is_even, witt_invariants
from .frobenius import (
    Augmented,
    GorensteinResult,
    _graded_family,
    _nonsingular_point,
    _split,
    _symbolic_certificate,
    _trial_top,
    gorenstein_test,
)
from .poly import MultiPoly, _monomial_algebra, monomials_of_degree
from .scalar import Field, Scalar


class Tensor3(_Read):
    """A d1 x d2 x d3 array of scalars; its layers T[i] are the planes of
    its read ``raw`` (see algebra._Read), which has no unit slices."""

    __slots__ = ("field", "dims")
    entries = property(lambda self: self._boxed(self.dims[1:]),
                       doc="The boxed layers, boxed from the read on first read.")
    _entry = staticmethod(FiniteAlgebra._entry)

    def __init__(self, field: Field, entries):
        entries = tuple(
            tuple(tuple(field.scalar(x) for x in row) for row in plane)
            for plane in entries
        )
        d2 = len(entries[0]) if entries else 0
        d3 = len(entries[0][0]) if d2 else 0
        if any(len(p) != d2 or any(len(r) != d3 for r in p) for p in entries):
            raise ShapeMismatch("ragged tensor")
        object.__setattr__(self, "_c", entries)
        self._fill(*linalg.raw_slices(entries, field.characteristic), field, (len(entries), d2, d3))

    def _fill(self, planes, scale, field, dims):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", dims)
        self._keep(planes, scale, None)

    def _layers(self):
        """The layers T[i] as raw d2 x d3 matrices, scaled by the read's L."""
        return _constant_planes(self.raw, *self.dims[1:])

    @classmethod
    def from_support(cls, field: Field, dims, support):
        """Build from a sparse list of (i, j, k, value) entries."""
        d1, d2, d3 = dims
        if min(dims) < 0:
            raise ShapeMismatch(f"negative dimension in {tuple(dims)}")
        z = field.zero
        e = [[[z] * d3 for _ in range(d2)] for _ in range(d1)]
        for i, j, k, v in support:
            if not all(0 <= x < n for x, n in zip((i, j, k), dims)):
                raise ShapeMismatch(f"entry ({i}, {j}, {k}) lies outside {tuple(dims)}")
            e[i][j][k] = field.scalar(v)
        return cls(field, e)

    def _contract(self, a):
        """sum_i a_i T[i] as raw d2 x d3 rows on the packed pencil of the
        layers (linalg.pencil, blocked), and their scale: the read's L times,
        at p = 0, the common denominator of a."""
        f = self.field
        a = [f.scalar(x).value for x in a]
        if len(a) != self.dims[0]:
            raise ShapeMismatch("contraction vector has wrong length")
        p = f.characteristic
        (a,), L_a = linalg._integer_rows([a])
        top_a = p - 1 if p else max(map(abs, a), default=0)
        return linalg.pencil(self._layers(), p, top_a, False)(a), self.raw[1] * L_a

    def slice_first(self, a):
        """Contraction sum_i a_i T[i][.][.] (a d2 x d3 matrix), on the read."""
        f, p = self.field, self.field.characteristic
        rows, L = self._contract(a)
        return tuple(tuple(Scalar(f, v if p else Fraction(v, L)) for v in row) for row in rows)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor3)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Tensor3{self.dims} over {self.field}"

    def serialize(self) -> dict:
        flat = [str(x) for layer in self.entries for row in layer for x in row]
        return {
            "field": {"kind": self.field.kind, "characteristic": self.field.characteristic},
            "dims": list(self.dims),
            "entries": flat,
        }


def structure_tensor(A: FiniteAlgebra) -> Tensor3:
    """The multiplication table of A, viewed as a 3-tensor, and its read."""
    (*planes, _), L = A.raw
    return Tensor3.on_read(planes, L, A.field, (A.dim,) * 3)


def cw_tensor(field: Field, q: int) -> Tensor3:
    """The big Coppersmith-Winograd tensor CW_q, from its closed-form support.

    Independent of the quotient-ring machinery on purpose: equality with the
    structure tensor of the G-fat point algebra compiled from its
    presentation (``poly.quotient_algebra``, as the tests do) is a real test;
    ``aq_algebra``'s closed form alone would not be one.
    """
    if q < 1:
        raise BadParameter("q must be at least 1")
    d = q + 2
    support = []
    for j in range(d):
        support.append((0, j, j, 1))
        if j != 0:
            support.append((j, 0, j, 1))
    for i in range(1, q + 1):
        support.append((i, i, q + 1, 1))
    return Tensor3.from_support(field, (d, d, d), support)


def aq_algebra(field: Field, q: int) -> FiniteAlgebra:
    """The G-fat point algebra of degree q+2,
    k[y_1..y_q]/((y_i y_j)_{i<j}, (y_i^2 - y_j^2)_{i<j}, y_1^3), from its
    closed form: on the standard monomials 1, y_1, ..., y_q, y_1^2 of that
    presentation, y_i y_j = delta_ij y_1^2 and every product of degree 3 is 0."""
    if q < 1:
        raise BadParameter("q must be at least 1")
    one = (0,) * q
    monos = [one, *(one[:i] + (1,) + one[i + 1:] for i in range(q)), (2,) + one[1:]]
    names = tuple(f"y{i + 1}" for i in range(q))
    return _monomial_algebra(field, names, monos, lambda u: (
        {u: 1} if sum(u) < 2 else {monos[-1]: 1} if sum(u) == max(u) == 2 else {}))[0]


@dataclass(frozen=True)
class OneGenericResult:
    status: str  # "witness" | "no" | "inconclusive"
    witness: tuple | None
    certificate: MultiPoly | None
    trials: int

    def serialize(self) -> dict:
        out = {"status": self.status, "trials": self.trials}
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        if self.certificate is not None:
            out["certificate"] = _symbolic_certificate(self.certificate)
        return out


def one_generic(
    T: Tensor3, seed: int = 0, trials: int = 64, symbolic_max_dim: int = 8
) -> OneGenericResult:
    """Search for a first-slot contraction of full rank.

    The search is frobenius._nonsingular_point, shared with gorenstein_test,
    on the pencil sum_i a_i T[i]: seeded sampling first, each trial on the
    packed pencil of T's layers (linalg.pencil; over QQ the L-scaled integer
    pencil); on failure and when d1 <= symbolic_max_dim, the determinant of
    the symbolic slice is expanded: zero certifies "no", a nonvanishing
    point is a witness.
    """
    d1, d2, d3 = T.dims
    if d2 != d3:
        raise ShapeMismatch("slices are not square")
    p, layers = T.field.characteristic, T._layers()
    names = tuple(f"a{i}" for i in range(d1))
    # entry (j, k) of the pencil: T[i][j][k] as i runs
    point, Dpoly, used = _nonsingular_point(
        T.field, linalg.pencil(layers, p, _trial_top(p), False),
        lambda: [list(zip(*rows)) for rows in zip(*layers)], T.raw[1], names, seed, trials,
        symbolic_max_dim)
    if point is not None:
        return OneGenericResult("witness", point, Dpoly, used)
    if Dpoly is not None and not Dpoly:
        return OneGenericResult("no", None, Dpoly, used)
    return OneGenericResult("inconclusive", None, None, used)


def strassen_commuting(T: Tensor3, witness) -> bool:
    """Whether the normalized slices N_i = slice(a)^-1 slice(e_i) pairwise
    commute (Strassen's commutativity, necessary for minimal border rank).

    On raw values throughout: the layers slice(e_i) carry the read's common
    scale L, and slice(a), contracted packed, L times a's common denominator
    L_a, so the N_i are all scaled by 1/L_a, which leaves commutation alone.
    """
    M, _ = T._contract(witness)
    if T.dims[1] != T.dims[2]:
        raise ShapeMismatch("slices are not square")
    p = T.field.characteristic
    try:
        Minv = linalg.raw_invert(M, p)
    except Singular:
        raise SingularWitness("witness slice is singular") from None
    slices = [linalg.raw_mul(Minv, layer, p, 0) for layer in T._layers()]
    return linalg.first_noncommuting([[(0, m)] for m in slices], p) is None


def matrix_algebra_tensor(field: Field, n: int) -> Tensor3:
    """Structure tensor of the n x n matrix algebra (non-commutative; a
    negative fixture for the commutativity check)."""
    d = n * n
    support = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    if b == c:
                        support.append((a * n + b, c * n + e, a * n + e, 1))
    return Tensor3.from_support(field, (d, d, d), support)


@dataclass(frozen=True)
class DegenerationReport:
    """Explicit degeneration of an isotropically augmented algebra toward
    the G-fat point shape, with the isometry invariants of the V-form."""

    family: AlgebraFamily  # basis (1, x, v_1, ..., v_q)
    v_form: BilinearForm
    invariants: WittInvariants
    adapted_basis: tuple
    closed_fiber_is_aq: bool  # over the algebraic closure


def degeneration_to_cw(T: Augmented) -> DegenerationReport:
    """The multiplication-scaling family through a Gorenstein algebra.

    Fiber at 1 is the input (in the adapted basis); fiber at 0 has zero
    V-multiplication, i.e. the shape of form_to_algebra(B).  Over an
    algebraically closed field the special fiber is the G-fat point A_q;
    over the given exact field the report carries the isometry invariants
    of B instead of an isomorphism claim.  The input in the adapted basis
    (1, x, V) has phi = (lam, 1, 0, ...) and e = (1, 0, ...).
    """
    # the split alone: V's table is a block of U, and witt_invariants'
    # determinant rejects a degenerate V-form
    lam, form, vlabels, adapted, (rows, *_) = _split(T.oa, T.e)  # raises NotIsotropic
    f, m = T.oa.field, form.dim
    labels = ("1", "x") + vlabels
    # on the raw rows (1, x, V); the unit is e_0, as row 0 is the unit
    U = _on_basis(T.algebra, rows, labels, (f.one,) + (f.zero,) * (m + 1))
    # weights (0, 2, 1, ..., 1) on (1, x, V): V·V -> V takes a t, V·V -> x does not
    fam = _graded_family(U, [0, 2] + [1] * m, labels,
                         orientation=[lam, 1] + [0] * m,
                         augmentations={"aug": [1] + [0] * (m + 1)})
    inv = witt_invariants(form)
    # in characteristic 2 an alternating V-form cannot become A_q's identity form
    closed_fiber_is_aq = f.characteristic != 2 or not is_even(form)
    return DegenerationReport(fam, form, inv, adapted, closed_fiber_is_aq)


@dataclass(frozen=True)
class ReducedDegeneration:
    limit: FiniteAlgebra
    hilbert: list
    points: tuple
    gorenstein: GorensteinResult

    def serialize(self) -> dict:
        return {
            "hilbert": self.hilbert,
            "limit": self.limit.serialize(),
            "points": [[str(x) for x in p] for p in self.points],
            "gorenstein": self.gorenstein.serialize(self.limit.labels),
        }


def degeneration_from_points(field: Field, points) -> ReducedDegeneration:
    """Flat limit at the origin of the rescaled point set; succeeds only with
    Hilbert function (1, q, 1) and a Gorenstein limit.

    E evaluates the monomials of degree <= 3, ascending in grevlex, at the
    points.  Grevlex is graded, so u leads a top-degree form in(f), f in the
    point ideal, exactly when column u of E depends on the columns before it
    (Möller & Buchberger, 1982).  So the pivots of one RREF of E are the
    limit's standard monomials, and column u on the pivot rows of u's degree
    is u's normal form.

    E is first built and reduced on the monomials of degree <= 2 alone.
    When that block has full row rank q + 2 and more than q + 2 columns,
    every pivot of E lies in it, and the RREF is unique, so its pivots and
    pivot rows are E's on every column read (no pivot has degree 3, and no
    normal form reads a column of degree 3).  Otherwise E is reduced
    whole."""
    points = [tuple(field.scalar(x) for x in p) for p in points]
    if not points:
        raise ZeroInput("no points")
    q = len(points) - 2
    nvars = len(points[0])
    if any(len(pt) != nvars for pt in points):
        raise DimensionMismatch("the points have different numbers of coordinates")
    p = field.characteristic
    # each point as integers over its common denominator L
    scaled = [linalg._integer_rows([[x.value for x in pt]]) for pt in points]

    def reduced(top):
        """The monomials of degree <= top, E on them (in RREF) and its pivots."""
        monos = [m for s in range(top + 1) for m in monomials_of_degree(nvars, s)]
        E = []
        for (xs,), L in scaled:
            # the row times L^top, which leaves the RREF alone
            row = [prod(x**e for x, e in zip(xs, m) if e) * L ** (top - sum(m)) for m in monos]
            E.append([v % p for v in row] if p else row)
        return monos, E, linalg.raw_rref(E, p)

    monos, E, pivots = reduced(2)
    if len(pivots) < q + 2 or len(monos) <= q + 2:
        monos, E, pivots = reduced(3)
    if len(pivots) == len(monos):  # the ideal has no element of degree <= 3
        raise ZeroInput("no generators")
    degrees = [sum(monos[c]) for c in pivots]
    hilbert = [degrees.count(s) for s in range(4)]
    if hilbert[3]:
        raise BoundTooSmall("graded quotient still has dimension in degree 3; raise the bound")
    if hilbert != [1, q, 1, 0]:
        raise GenericityFailure(
            f"limit Hilbert function {hilbert[:3]} != (1, {q}, 1); resample"
        )
    col = {m: c for c, m in enumerate(monos)}

    def normal_form(u):
        return {monos[c]: row[col[u]] for c, row, deg in zip(pivots, E, degrees) if deg == sum(u)}

    names = tuple(f"y{i + 1}" for i in range(nvars))
    limit, _ = _monomial_algebra(field, names, [monos[c] for c in pivots], normal_form)
    gor = gorenstein_test(limit, seed=0)
    if gor.status != "oriented":
        raise GenericityFailure("limit algebra failed the Gorenstein test")
    return ReducedDegeneration(limit, hilbert[:3], tuple(points), gor)


def reduced_degeneration(q: int, seed: int, field: Field = None) -> ReducedDegeneration:
    """Degeneration of q+2 reduced points on general lines through the
    origin, per sampled directions on the hyperplane y_{q+1} = 1."""
    from .scalar import QQ

    if field is None:
        field = QQ
    if q < 1:
        raise BadParameter("q must be at least 1")
    if field.characteristic and field.characteristic <= q + 2:
        raise BadParameter("prime field is too small for q+2 distinct points")
    rng = random.Random(seed)
    points = []
    for _ in range(q + 2):
        if field.characteristic == 0:
            p = tuple(rng.randint(-30, 30) for _ in range(q)) + (1,)
        else:
            p = tuple(rng.randrange(field.characteristic) for _ in range(q)) + (1,)
        points.append(p)
    if len(set(points)) != q + 2:
        raise GenericityFailure("sampled points collide; resample")
    return degeneration_from_points(field, points)
