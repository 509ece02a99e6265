"""Structure-constant model of finite-dimensional commutative algebras.

An algebra is a basis plus a d*d*d array c with e_i e_j = sum_k c[i][j][k] e_k
and an optional unit vector.  The plane c[i] is the matrix of multiplication
by e_i (row j is e_i e_j), and validation is three matrix identities on
these planes: c[i][j] = c[j][i] (commutativity); c[i]·c[k] = c[k]·c[i],
since row j of each side is (e_i e_j) e_k and e_i (e_j e_k) (associativity);
and sum_m unit[m] c[m] = I (the unit law).  Every later construction leans
on these checks being exact; they run on raw coefficient slices, once, where
a table enters the library, not on what a construction builds from valid input.

The read of a table lives on its object: FiniteAlgebra, AlgebraFamily and
tensors.Tensor3 hold ``raw`` from construction (see ``_Read``), and
validation and every consumer of the table work from it.  New tables are
built on reads by ``_table_on_rows``, the table of the rows of a constant
matrix read by a coordinate map, both raw integers over a scale, multiplied
block by block on Kronecker-packed rows; no row space is checked, as each
caller's construction guarantees it (see its docstring).  ``base_change``
(through ``_on_basis``, which ``rees_family`` and ``degeneration_to_cw``
call on the raw rows of their adapted bases), ``direct_product``,
``decompose_augmented`` and the connected sums and homotopies of
``frobenius._consum_core`` (whose right factor can be a family over k[t])
hand it raw values they hold or write in closed form, read by
``linalg._integer_rows``, the one QQ reader.  Tables are also built by
``AlgebraFamily.at``, which evaluates the family's read by Horner's rule,
and by the derived algebras
(``frobenius.unitalize``, ``form_to_algebra``, ``hyp_algebra``, and
``poly._monomial_algebra`` for quotients and A_q), which lay out the planes
from their inputs' reads; each hands its raw planes to ``on_read``, and the
table is boxed on first read of ``c``.  Boxed tables come in only from
outside and from ``families.robber_family`` and ``Tensor3.from_support``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import lcm
from operator import mul
from types import MappingProxyType

from . import linalg
from .errors import (
    BadUnit,
    DimensionMismatch,
    FieldMismatch,
    NotAssociative,
    NotCommutative,
)
from .scalar import Field, Scalar, TPoly, as_tpoly


class Subspace:
    """A subspace of k^n, stored as a reduced-row-echelon basis.

    Canonical form makes equality of subspaces literal equality of rows.
    """

    __slots__ = ("ambient_dim", "rows", "field")

    def __init__(self, ambient_dim: int, rows, field: Field = None):
        rows = [tuple(r) for r in rows]
        if any(len(r) != ambient_dim for r in rows):
            raise DimensionMismatch("row length does not match ambient dimension")
        if field is None:
            field = next(
                (x.field for r in rows for x in r if isinstance(x, Scalar)), None
            )
        if field is not None:
            rows = [tuple(field.scalar(x) for x in r) for r in rows]
        self._fill(ambient_dim, linalg.rref(rows, ambient_dim)[0], field)

    @classmethod
    def on_rref(cls, ambient_dim: int, rows, field: Field = None):
        """The subspace whose RREF basis is ``rows``, a tuple of row tuples of
        Scalars (no elimination runs); ``field`` as for Subspace()."""
        out = object.__new__(cls)
        out._fill(ambient_dim, rows, field or (rows[0][0].field if rows else None))
        return out

    def _fill(self, ambient_dim, rows, field):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "field", field)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector has wrong length")
        if self.field is not None:
            v = [self.field.scalar(x) for x in v]
        if not self.rows:
            return all(not x for x in v)
        stacked, _ = linalg.rref(list(self.rows) + [tuple(v)], self.ambient_dim)
        return len(stacked) == self.dim

    def is_contained_in(self, other: "Subspace") -> bool:
        return all(other.contains(r) for r in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def validate_structure(c, unit, zero, read=None):
    """Check commutativity, associativity and the unit law of a table.

    Entries may be Scalars or TPolys (``zero`` names the ring); the checks
    are then polynomial identities.  Table and unit are read once by
    raw_slices, so over QQ the unit law reads unit·c[i] = L² e_i.  A caller
    holding that read, ([*plane slices, unit slices], L), passes it as
    ``read``, and the table ``c`` is then used only for its length.  Raises
    naming the first violating triple.
    """
    p = zero.field.characteristic
    d = len(c)
    (*planes, unit_row), L = read or linalg.raw_slices([*c, [unit or ()]], p)
    for i in range(d):
        for j in range(i + 1, d):
            if linalg.slice_row(planes[i], j) != linalg.slice_row(planes[j], i):
                raise NotCommutative(f"e{i}*e{j} != e{j}*e{i}")
    # row j of c[i]·c[k] is (e_i e_j) e_k, row j of c[k]·c[i] is e_i (e_j e_k)
    bad = linalg.first_noncommuting(planes, p)
    if bad is not None:
        i, k, j = bad
        raise NotAssociative(f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})")
    if unit is not None:
        for i, plane in enumerate(planes):
            # row i of sum_m unit[m] c[m] is unit·c[i], by commutativity
            row = linalg.slice_mul(unit_row, plane, p)
            for l in range(d):
                want = [(0, L * L)] if l == i else []
                if [(s, m[0][l]) for s, m in row if m[0][l]] != want:
                    raise BadUnit(f"unit*e{i} has wrong e{l}-component")


class _Read:
    """The one raw read of a table, held from construction by the object
    that owns the table: FiniteAlgebra, AlgebraFamily and tensors.Tensor3.

    ``raw`` is ([*plane slices, unit slices], L): the planes and the unit (no
    unit: no slices) as one linalg.raw_slices read gives them, ints mod p or
    over QQ the entries times a common denominator L.  There is one way in
    per form of the table: a constructor given the boxed table reads it once,
    after its shape checks, and keeps it; ``on_read`` takes the raw planes
    instead.  Validation and every consumer work from this read, and the
    boxed table is boxed from it on first read of ``c`` (``_boxed``).
    """

    __slots__ = ("raw", "_c")

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def on_read(cls, planes, scale, *args, **kwargs):
        """cls(*args, **kwargs) on the raw plane slices ``planes`` over
        ``scale`` instead of a boxed table, boxed from them on first read;
        with ``validate=False`` the caller vouches for the table."""
        out = object.__new__(cls)
        object.__setattr__(out, "_c", None)
        out._fill(planes, scale, *args, **kwargs)
        return out

    def _boxed(self, shape):
        """``_c``, boxed from the read (planes of ``shape``) on first call."""
        if self._c is None:
            (*planes, _), L = self.raw
            zero, memo = self._entry(0, self.field), {}
            object.__setattr__(self, "_c", tuple(
                _box_plane(self.field, pl, L, zero, shape, memo) for pl in planes))
        return self._c

    def _keep(self, planes, scale, unit):
        """Keep plane slices over ``scale`` and the unit's (a vector, or None)
        as the read, over their least common scale."""
        (u,), L_u = linalg.raw_slices([[unit or ()]], self.field.characteristic)
        L = lcm(scale, L_u)
        if L != scale:
            planes = [[(s, [[x * (L // scale) for x in row] for row in X]) for s, X in pl]
                      for pl in planes]
        u = [(s, [[x * (L // L_u) for x in X[0]]]) for s, X in u]
        object.__setattr__(self, "raw", ([*planes, u], L))


def _constant_planes(read, rows: int, cols: int):
    """The planes of the read of a table over k as raw rows x cols matrices."""
    zeros = [[0] * cols] * rows
    return [dict(plane).get(0, zeros) for plane in read[0][:-1]]


class _Table(_Read):
    """A d*d*d structure table ``c`` on basis ``labels`` with an optional
    unit, entries coerced by ``_entry``: what FiniteAlgebra (Scalars) and
    AlgebraFamily (TPolys) share, with the contractions on the read."""

    __slots__ = ("field", "dim", "labels", "unit")
    c = property(lambda self: self._boxed((self.dim,) * 2),
                 doc="The boxed table, boxed from the read on first read.")

    def _read_of(self, field, labels, c):
        """Keep the coerced table of a boxed table ``c``, and read it once
        after its shape check: the raw planes and their scale."""
        d = len(labels)
        c = tuple(tuple(tuple(self._entry(x, field) for x in row) for row in plane) for plane in c)
        if len(c) != d or any(len(p) != d or any(len(r) != d for r in p) for p in c):
            raise DimensionMismatch("structure constants are not d*d*d")
        object.__setattr__(self, "_c", c)
        return linalg.raw_slices(c, field.characteristic)

    def _fill(self, planes, scale, field, labels, unit=None, validate=True):
        d = len(planes)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "labels", tuple(str(x) for x in labels))
        if unit is not None:
            unit = tuple(self._entry(x, field) for x in unit)
            if len(unit) != d:
                raise DimensionMismatch("unit has wrong length")
        object.__setattr__(self, "unit", unit)
        self._keep(planes, scale, unit)
        if validate:
            # nothing is boxed: with ``read`` given the table counts only by its
            # length and ring (bench/tracing.py reads the ring off c[0][0][0])
            zero = self._entry(0, field)
            validate_structure((((zero,),),) * d, unit, zero, read=self.raw)

    def coerce_vector(self, v):
        v = tuple(self._entry(x, self.field) for x in v)
        if len(v) != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {len(v)}")
        return v

    def contract(self, col):
        """The d x d matrix (v(e_i e_j)) of a functional v on the read of an
        algebra's table: ``col`` is v as a raw d x 1 slice list, and the
        result, a slice list, is scaled by the table's L times v's scale."""
        (*planes, _), _ = self.raw
        d = len(planes)
        # row i*d + j of stacked[s] is row j of plane i: e_i e_j
        stacked = {}
        for i, plane in enumerate(planes):
            for s, X in plane:
                stacked.setdefault(s, [[0] * d] * (d * d))[i * d:(i + 1) * d] = X
        return [(s, [[x for x, in X[i * d:(i + 1) * d]] for i in range(d)])
                for s, X in linalg.slice_mul(sorted(stacked.items()), col,
                                             self.field.characteristic)]

    def pairing(self, phi):
        """The Gram matrix (phi(e_i e_j)) of a functional phi (Scalars or
        TPolys) on the read, as a slice list, and its scale: the raw values
        are the Gram entries times it."""
        (col,), L_phi = linalg.raw_slices([[[x] for x in phi]], self.field.characteristic)
        return self.contract(col), self.raw[1] * L_phi

    def serialize(self) -> dict:
        out = {
            "field": {"kind": self.field.kind, "characteristic": self.field.characteristic},
            "labels": list(self.labels),
            "structure_constants": [
                [[self._show(x) for x in row] for row in plane] for plane in self.c
            ],
        }
        if self.unit is not None:
            out["unit"] = [self._show(x) for x in self.unit]
        return out


class FiniteAlgebra(_Table):
    """A commutative (optionally unital) algebra of finite dimension; with
    ``validate=False`` the caller vouches for its table."""

    __slots__ = ()
    _show = str

    def __init__(self, field: Field, labels, c, unit=None, validate: bool = True):
        planes, scale = self._read_of(field, labels, c)
        self._fill(planes, scale, field, labels, unit, validate)

    @staticmethod
    def _entry(x, field):
        return field.scalar(x)

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def basis_vector(self, i: int):
        return tuple(
            self.field.one if j == i else self.field.zero for j in range(self.dim)
        )

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.field == other.field
            and self.labels == other.labels
            and self.c == other.c
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field, self.labels, self.c, self.unit))

    def __repr__(self):
        u = "unital" if self.is_unital else "non-unital"
        return f"FiniteAlgebra(dim {self.dim}, {u}, basis {self.labels})"


def algebra_from_constants(field: Field, labels, c, unit=None) -> FiniteAlgebra:
    """Validate a raw structure-constant table and wrap it."""
    return FiniteAlgebra(field, labels, c, unit, validate=True)


def multiply(A: FiniteAlgebra, u, v):
    """The product of two coefficient vectors, by bilinear contraction."""
    u = A.coerce_vector(u)
    v = A.coerce_vector(v)
    out, c = [A.field.zero] * A.dim, A.c
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui and vj:
                f = ui * vj
                for k, ck in enumerate(c[i][j]):
                    if ck:
                        out[k] = out[k] + f * ck
    return tuple(out)


def ideal_span(A: FiniteAlgebra, gens) -> Subspace:
    """Smallest multiplication-closed subspace containing the generators."""
    gens = [A.coerce_vector(g) for g in gens]
    span = Subspace(A.dim, gens)
    while True:
        new_rows = list(span.rows)
        for b in span.rows:
            for i in range(A.dim):
                new_rows.append(multiply(A, b, A.basis_vector(i)))
        grown = Subspace(A.dim, new_rows)
        if grown.dim == span.dim:
            return span
        span = grown


def annihilator(A: FiniteAlgebra, I: Subspace) -> Subspace:
    """{a in A : a * I = 0}, on A's read."""
    if I.ambient_dim != A.dim:
        raise DimensionMismatch("subspace lives in the wrong ambient space")
    _, rows = linalg.unbox(I.rows, A.field)
    return Subspace.on_rref(A.dim, linalg._box(A.field, _raw_ann(A, rows)), A.field)


def _raw_ann(A: FiniteAlgebra, rows):
    """RREF basis, as raw rows, of {a : a·r = 0 for each row r}, r given by
    raw values (ints mod p, or Fractions at p = 0); over QQ the read is
    scaled, which leaves the annihilator alone."""
    d, p = A.dim, A.field.characteristic
    constraints = []
    if rows:
        # column (r, l) of rows·[c[0]; ...; c[d-1]] is the e_l-coefficient of
        # r·e_i as i runs: a·r = 0 exactly when a is orthogonal to each
        flat = [[x for row in plane for x in row] for plane in _constant_planes(A.raw, d, d)]
        prod = linalg.raw_mul(rows, flat, p, 0 if p else Fraction(0))
        constraints = [[row[i * d + l] for i in range(d)] for row in prod for l in range(d)]
    return linalg.raw_kernel([c for c in constraints if any(c)], d, p)


def direct_product(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product algebra on the concatenated basis: the table of
    the rows of the identity in A (+) B, built on the two reads."""
    if A.field != B.field:
        raise FieldMismatch("factors live over different fields")
    D = A.dim + B.dim
    I = [[int(i == j) for j in range(D)] for i in range(D)]
    planes, scale = _table_on_rows(A.field, [A, B], I, 1, [(0, I)], 1)
    unit = None
    if A.unit is not None and B.unit is not None:
        unit = tuple(A.unit) + tuple(B.unit)
    labels = tuple(f"{l}.1" for l in A.labels) + tuple(f"{l}.2" for l in B.labels)
    return FiniteAlgebra.on_read(planes, scale, A.field, labels, unit, validate=False)


def base_change(A: FiniteAlgebra, P, labels=None) -> FiniteAlgebra:
    """Rewrite the table and unit in the basis f_i = sum_j P[i][j] e_j."""
    P = tuple(A.coerce_vector(row) for row in P)
    if len(P) != A.dim:
        raise DimensionMismatch("change of basis must be square")
    if labels is None:
        labels = tuple(f"b{i}" for i in range(A.dim))
    return _on_basis(A, linalg.unbox(P, A.field)[1], labels)


def _on_basis(A: FiniteAlgebra, P, labels, unit=None) -> FiniteAlgebra:
    """base_change on raw rows P (ints mod p, or at p = 0 ints and
    Fractions): the table of P's rows, read by P^-1.  The unit is A's times
    P^-1, unless the caller gives it (a vector of Scalars, not checked)."""
    f, p = A.field, A.field.characteristic
    Pinv = linalg.raw_invert([row[:] for row in P], p)
    if unit is None and A.unit is not None:
        unit = linalg._box(f, linalg.raw_mul(
            [[x.value for x in A.unit]], Pinv, p, 0 if p else Fraction(0)))[0]
    (R, L_R), (C, L_C) = linalg._integer_rows(P), linalg._integer_rows(Pinv)
    planes, scale = _table_on_rows(f, [A], R, L_R, [(0, C)], L_C)
    return FiniteAlgebra.on_read(planes, scale, f, labels, unit, validate=False)


def _box_plane(field: Field, slices, scale: int, zero, shape, memo: dict):
    """The (rows, columns) matrix, of Scalars or of TPolys as ``zero`` is, of
    a slice list of raw numerators over ``scale``; later columns are dropped.
    Equal entries share one immutable object through ``memo``, keyed on the
    raw value in a table over k (one slice, at t^0, or none) and on the
    tuple of (power, value) pairs in a table over k[t]."""
    p = field.characteristic
    rows, cols = shape
    if not isinstance(zero, TPoly):
        X = slices[0][1] if slices else [[0] * cols] * rows
        get, out = memo.get, []
        for row in X[:rows]:
            boxed = []
            for v in row[:cols]:
                x = get(v)
                if x is None:
                    x = memo[v] = Scalar(field, v if p else Fraction(v, scale))
                boxed.append(x)
            out.append(tuple(boxed))
        return tuple(out)

    def entry(b, k):
        key = tuple((s, M[b][k]) for s, M in slices if M[b][k])
        if key not in memo:
            coeffs = [field.zero] * (key[-1][0] + 1 if key else 1)
            for s, v in key:
                coeffs[s] = Scalar(field, v if p else Fraction(v, scale))
            memo[key] = TPoly(field, coeffs)
        return memo[key]

    return tuple(tuple(entry(b, k) for k in range(cols)) for b in range(rows))


def _table_on_rows(field: Field, tables, R, L_R: int, C, L_C: int):
    """The raw plane slices, and their scale, of the table of the rows r_a
    of R in the block-diagonal algebra tables[0] (+) tables[1] (+) ..., its
    products read in coordinates by C.

    Plane a is R·(sum_i R[a][i] c[i])·C, row b being (r_a r_b)·C.  R is a
    constant matrix of raw rows, C a D x w slice list (the tables, algebras
    or families, and C may hold powers of t): ints mod p, or at p = 0 the
    entries times L_R and times L_C.  The tables come from their reads,
    brought to a common scale Lc, so products carry L_R² L_C Lc.

    No row-space check runs, as C reads a space holding every product by
    each caller's construction: ``base_change`` and ``direct_product`` pass
    an invertible P (or I) and its inverse; ``decompose_augmented`` V's rows
    and C after the projection along span(1, x), which lands in V for every
    w once e is an isotropic augmentation (checked at entry); the connected
    sums and homotopies (``frobenius._consum_core``) a basis of the fiber
    product less the socle line, closed under products as e1 and e2 are
    algebra maps (checked where each ``Augmented`` is made).

    The products run on Kronecker-packed rows (see linalg): row k of C is
    one int P[k] with t^u e_l at slot u·w + l.  Block by block (offset o,
    dim d, planes scaled to Lc), row j of c[i]·C is the int F[i][j] =
    sum_k c[i][j][k](t)·P[o + k], and RF[a][o + j] = sum_i R[a][o + i]·F[i][j];
    only block-local indices are visited.  Row b of plane a is
    sum_j R[b][j]·RF[a][j], shifted by b·w·V slots for V = S_T + S_C - 1,
    so each plane is read once.  With S_T and S_C the numbers of powers of t
    in the tables and in C, a slot sums at most (sum of d³)·min(S_T, S_C)
    terms of size at most top_R²·top_T·top_C (tops p - 1, or at p = 0 the
    largest |entry|), and that bound sets the slot width
    (linalg._slot_width).
    """
    if not R:
        return [], 1
    p, n, Lc = field.characteristic, len(R), lcm(*(t.raw[1] for t in tables))
    blocks, D = [], 0
    for t in tables:
        blocks.append((D, t.raw[0][:-1], Lc // t.raw[1]))
        D += t.dim
    S_T = 1 + max((s for _, planes, _ in blocks for pl in planes for s, _ in pl), default=-1)
    if not (any(map(any, R)) and C and S_T):
        return [[] for _ in range(n)], L_R**2 * L_C * Lc
    w, S_C = len(C[0][1][0]), C[-1][0] + 1
    top = (p - 1) ** 4 if p else (
        max(map(abs, chain.from_iterable(R))) ** 2
        * max(max(map(abs, chain.from_iterable(X))) for _, X in C)
        * max(f * max(map(abs, chain.from_iterable(X))) for _, pls, f in blocks for pl in pls
              for _, X in pl))
    width = w * (S_T + S_C - 1)
    K, read = linalg._slot_width(sum(len(pl) ** 3 for _, pl, _ in blocks) * min(S_T, S_C) * top,
                                 p, n * width)
    PC, RF = linalg._packed_rows(C, D, K, K * w), [[0] * D for _ in range(n)]
    for o, planes, f in blocks:
        d, PCo = len(planes), [f * x for x in PC[o:o + len(planes)]]
        # FT[j][i] is F[i][j]
        FT = list(zip(*([sum(map(mul, e[1], compress(PCo, e[0]))) if e else 0
                         for e in linalg._packed_entries(pl, d, K * w)] for pl in planes)))
        for RFa, Ra in zip(RF, (row[o:o + d] for row in R)):
            RFa[o:o + d] = [sum(map(mul, Ra, col)) for col in FT]
    out = []
    for RFa in RF:
        flat = read(sum(sum(map(mul, Rb, RFa)) << (K * width * b) for b, Rb in enumerate(R)))
        Xs = ((u // w, [flat[b + u:b + u + w] for b in range(0, n * width, width)])
              for u in range(0, width, w))
        out.append([(s, X) for s, X in Xs if any(map(any, X))])
    return out, L_R**2 * L_C * Lc


class AlgebraFamily(_Table):
    """An algebra whose structure constants are polynomials in t.

    Commutativity, associativity and the unit law are required as exact
    polynomial identities (with ``validate=False`` the caller vouches for
    them), so every specialization is valid at once.  An optional
    orientation and named augmentations (a read-only mapping) ride along as
    TPoly vectors.  Validation, ``at``, ``gram`` and the family
    checks of ``families`` and ``frobenius.augmentation_check`` all work
    from the read ``raw``.  (Exposed through the families module.)
    """

    __slots__ = ("orientation", "augmentations")
    _entry = staticmethod(as_tpoly)
    _show = staticmethod(TPoly.serialize)

    def __init__(
        self,
        field: Field,
        labels,
        c,
        unit=None,
        orientation=None,
        augmentations=None,
        validate: bool = True,
    ):
        planes, scale = self._read_of(field, labels, c)
        self._fill(planes, scale, field, labels, unit, orientation, augmentations, validate)

    def _fill(self, planes, scale, field, labels, unit=None, orientation=None,
              augmentations=None, validate=True):
        super()._fill(planes, scale, field, labels, unit, validate)
        object.__setattr__(self, "orientation",
                           None if orientation is None else self.coerce_vector(orientation))
        object.__setattr__(self, "augmentations", MappingProxyType(
            {k: self.coerce_vector(v) for k, v in (augmentations or {}).items()}))

    def at(self, value, validate: bool = True) -> FiniteAlgebra:
        """The fiber algebra at t = value, evaluated on the read by Horner's
        rule: at a/b, sum_s M_s (a/b)^s = (sum_s M_s a^s b^(top - s)) / b^top.
        The fiber keeps these raw planes as its read."""
        f, d = self.field, self.dim
        p = f.characteristic
        value = f.scalar(value)
        [[a]], b = linalg._integer_rows([[value.value]])
        (*planes, unit), L = self.raw
        top = max((s for pl in (*planes, unit) for s, _ in pl), default=0)

        def fiber(slices, rows):
            X, acc = dict(slices), [[0] * d] * rows
            for s in range(top, -1, -1):
                bs = b ** (top - s)
                acc = [[u * a + x * bs for u, x in zip(ra, rx)]
                       for ra, rx in zip(acc, X.get(s, [[0] * d] * rows))]
            acc = [[u % p for u in ra] for ra in acc] if p else acc
            return [(0, acc)] if any(map(any, acc)) else []

        scale, u = L * b**top, None
        if self.unit is not None:
            u = _box_plane(f, fiber(unit, 1), scale, f.zero, (1, d), {})[0]
        return FiniteAlgebra.on_read([fiber(pl, d) for pl in planes], scale, f, self.labels, u,
                                     validate=validate)

    def gram_slices(self):
        """The Gram matrix of the orientation pairing on the read, as a slice
        list, and its scale: the raw values are the Gram entries times it."""
        if self.orientation is None:
            raise BadUnit("family carries no orientation")
        return self.pairing(self.orientation)

    def gram(self):
        """Family Gram matrix of the orientation pairing, entries in k[t]."""
        slices, scale = self.gram_slices()
        return _box_plane(self.field, slices, scale, TPoly(self.field), (self.dim, self.dim), {})

    def serialize(self) -> dict:
        out = super().serialize()
        if self.orientation is not None:
            out["orientation"] = [x.serialize() for x in self.orientation]
        if self.augmentations:
            out["augmentations"] = {
                k: [x.serialize() for x in v] for k, v in self.augmentations.items()
            }
        return out
