"""Structure-constant model of finite-dimensional commutative algebras.

An algebra is a basis plus a d*d*d array c with e_i e_j = sum_k c[i][j][k] e_k
and an optional unit vector.  The plane c[i] is the matrix of multiplication
by e_i (row j is e_i e_j), and validation is three matrix identities on
these planes: c[i][j] = c[j][i] (commutativity); c[i]·c[k] = c[k]·c[i],
since row j of each side is (e_i e_j) e_k and e_i (e_j e_k) (associativity);
and sum_m unit[m] c[m] = I (the unit law).  Every later construction leans
on these checks being exact; they run on raw coefficient slices.

New tables are built on the same slices by ``_table_on_rows``, the table of
the rows of a constant matrix in coordinates against a row basis:
``base_change``, the connected sums and homotopies of
``frobenius._consum_core``, and ``decompose_augmented``.  An AlgebraFamily
keeps the one read its validation uses; ``AlgebraFamily.at`` evaluates it by
Horner's rule and validates the fiber on the evaluated slices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from . import linalg
from .errors import (
    BadUnit,
    DimensionMismatch,
    FieldMismatch,
    NotAssociative,
    NotCommutative,
    Singular,
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
        red, _ = linalg.rref(rows, ambient_dim)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", red)
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


def full_space(field: Field, n: int) -> Subspace:
    return Subspace(n, linalg.identity(field, n))


def zero_space(n: int) -> Subspace:
    return Subspace(n, ())


def validate_structure(c, unit, zero, read=None):
    """Check commutativity, associativity and the unit law of a table.

    Entries may be Scalars or TPolys (``zero`` names the ring); the checks
    are then polynomial identities.  Table and unit are read once by
    raw_slices, so over QQ the unit law reads unit·c[i] = L² e_i.  A caller
    that already holds that read, ([*plane slices, unit slices], L), passes
    it as ``read``.  Raises naming the first violating triple.
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


class FiniteAlgebra:
    """A commutative (optionally unital) algebra of finite dimension."""

    __slots__ = ("field", "dim", "labels", "c", "unit")

    def __init__(self, field: Field, labels, c, unit=None, validate: bool = True):
        d = len(labels)
        c = tuple(
            tuple(tuple(field.scalar(x) for x in row) for row in plane) for plane in c
        )
        if len(c) != d or any(len(p) != d or any(len(r) != d for r in p) for p in c):
            raise DimensionMismatch("structure constants are not d*d*d")
        if unit is not None:
            unit = tuple(field.scalar(x) for x in unit)
            if len(unit) != d:
                raise DimensionMismatch("unit has wrong length")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "labels", tuple(str(x) for x in labels))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "unit", unit)
        if validate:
            validate_structure(c, unit, field.zero)

    def __setattr__(self, *a):
        raise AttributeError("FiniteAlgebra is immutable")

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def coerce_vector(self, v):
        v = tuple(self.field.scalar(x) for x in v)
        if len(v) != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {len(v)}")
        return v

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

    def serialize(self) -> dict:
        out = {
            "field": {"kind": self.field.kind, "characteristic": self.field.characteristic},
            "labels": list(self.labels),
            "structure_constants": [
                [[str(x) for x in row] for row in plane] for plane in self.c
            ],
        }
        if self.unit is not None:
            out["unit"] = [str(x) for x in self.unit]
        return out


def algebra_from_constants(field: Field, labels, c, unit=None) -> FiniteAlgebra:
    """Validate a raw structure-constant table and wrap it."""
    return FiniteAlgebra(field, labels, c, unit, validate=True)


def multiply(A: FiniteAlgebra, u, v):
    """The product of two coefficient vectors, by bilinear contraction."""
    u = A.coerce_vector(u)
    v = A.coerce_vector(v)
    out = [A.field.zero] * A.dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui and vj:
                f = ui * vj
                for k, ck in enumerate(A.c[i][j]):
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
    """{a in A : a * I = 0}, the kernel of the stacked multiplication maps."""
    if I.ambient_dim != A.dim:
        raise DimensionMismatch("subspace lives in the wrong ambient space")
    constraints = []
    for v in I.rows:
        # row i of the constraint block is e_i * v
        block = [multiply(A, A.basis_vector(i), v) for i in range(A.dim)]
        # a * v = sum_i a_i (e_i v); one linear condition per component
        constraints.extend(zip(*block))
    return Subspace(A.dim, linalg.kernel_basis(A.field, constraints, A.dim))


def direct_product(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product algebra on the concatenated basis."""
    if A.field != B.field:
        raise FieldMismatch("factors live over different fields")
    da, db = A.dim, B.dim
    d = da + db
    z = A.field.zero
    c = [[[z] * d for _ in range(d)] for _ in range(d)]
    for i in range(da):
        for j in range(da):
            for k in range(da):
                c[i][j][k] = A.c[i][j][k]
    for i in range(db):
        for j in range(db):
            for k in range(db):
                c[da + i][da + j][da + k] = B.c[i][j][k]
    unit = None
    if A.unit is not None and B.unit is not None:
        unit = tuple(A.unit) + tuple(B.unit)
    labels = tuple(f"{l}.1" for l in A.labels) + tuple(f"{l}.2" for l in B.labels)
    return FiniteAlgebra(A.field, labels, c, unit, validate=False)


def base_change(A: FiniteAlgebra, P, labels=None) -> FiniteAlgebra:
    """Rewrite the table in the basis f_i = sum_j P[i][j] e_j."""
    P = tuple(A.coerce_vector(row) for row in P)
    if len(P) != A.dim:
        raise DimensionMismatch("change of basis must be square")
    Pinv = linalg.invert(A.field, P)
    c = _table_on_rows(A.field, [A.c], P, Pinv, 0, A.field.zero)
    unit = linalg.vec_mat(A.unit, Pinv) if A.unit is not None else None
    if labels is None:
        labels = tuple(f"b{i}" for i in range(A.dim))
    return FiniteAlgebra(A.field, labels, c, unit, validate=False)


def _box_plane(field: Field, slices, scale: int, zero, shape, memo: dict):
    """The (rows, columns) matrix, of Scalars or of TPolys as ``zero`` is, of
    a slice list of raw numerators over ``scale``; later columns are dropped.
    Equal entries share one immutable object through ``memo``."""
    p = field.characteristic

    def entry(b, k):
        key = tuple((s, M[b][k]) for s, M in slices if M[b][k])
        if key not in memo:
            coeffs = [field.zero] * (key[-1][0] + 1 if key else 1)
            for s, v in key:
                coeffs[s] = Scalar(field, v if p else Fraction(v, scale))
            memo[key] = TPoly(field, coeffs) if isinstance(zero, TPoly) else coeffs[0]
        return memo[key]

    return tuple(tuple(entry(b, k) for k in range(shape[1])) for b in range(shape[0]))


def _table_on_rows(field: Field, tables, R, M, checks: int, zero):
    """The table of the rows r_a of R in the block-diagonal algebra
    tables[0] (+) tables[1] (+) ..., its products mapped by M.

    Plane a is R·(sum_i R[a][i] c[i])·M, row b being (r_a r_b)·M; R is
    constant, the tables and M may hold TPolys.  The last ``checks`` columns
    of M must send every product to 0 (with M = [C | N] of a RowSolver: the
    products lie in its row space), else Singular.  One raw_slices read
    (common denominator L, so products carry L^4), linalg.slice_mul
    throughout, and one boxing in the ring of ``zero``.
    """
    if not R:
        return ()
    p = field.characteristic
    n, D, w = len(R), sum(map(len, tables)), len(M[0])
    tables_rows = ([r for pl in c for r in pl] for c in tables)
    (*stacks, R, M), L = linalg.raw_slices([*tables_rows, R, M], p)
    # row i*D + j of stack[s] is e_i e_j in ambient coordinates, zero across blocks
    stack, o = {}, 0
    for c, slices in zip(tables, stacks):
        d = len(c)
        for s, X in slices:
            rows = stack.setdefault(s, [[0] * D] * (D * D))
            for ij, row in enumerate(X):
                i, j = divmod(ij, d)
                rows[(o + i) * D + o + j] = [0] * o + row + [0] * (D - o - d)
        o += d
    # row i of F is plane i times M, flattened; row a of RF is sum_i R[a][i] F[i]
    F = [(s, [list(chain(*X[i * D:(i + 1) * D])) for i in range(D)])
         for s, X in linalg.slice_mul(sorted(stack.items()), M, p)]
    RF = linalg.slice_mul(R, F, p)
    out, memo = [], {}
    for a in range(n):
        plane = [(s, [X[a][j * w:(j + 1) * w] for j in range(D)]) for s, X in RF]
        Z = linalg.slice_mul(R, plane, p)
        if any(x for _, X in Z for row in X for x in row[w - checks:]):
            raise Singular("vector is not in the row space")
        out.append(_box_plane(field, Z, L**4, zero, (n, w - checks), memo))
    return tuple(out)


def _tpoly_vector(v, field: Field, d: int):
    if v is None:
        return None
    v = tuple(as_tpoly(x, field) for x in v)
    if len(v) != d:
        raise DimensionMismatch("vector has wrong length")
    return v


class AlgebraFamily:
    """An algebra whose structure constants are polynomials in t.

    Commutativity, associativity and the unit law are required as exact
    polynomial identities, so every specialization is valid at once.  An
    optional orientation and named augmentations ride along as TPoly
    vectors.  ``raw`` is the one raw_slices read of the table and the unit,
    ([*plane slices, unit slices], L), taken at construction or handed to
    ``on_read`` by code that built the table on raw slices; validation,
    ``at``, ``gram`` and the family checks of ``families`` and
    ``frobenius.augmentation_check`` all work from it.  (Exposed through the
    families module.)
    """

    __slots__ = ("field", "dim", "labels", "c", "unit", "orientation", "augmentations", "raw")

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
        d = len(labels)
        c = tuple(
            tuple(tuple(as_tpoly(x, field) for x in row) for row in plane)
            for plane in c
        )
        if len(c) != d or any(len(p) != d or any(len(r) != d for r in p) for p in c):
            raise DimensionMismatch("structure constants are not d*d*d")
        unit = _tpoly_vector(unit, field, d)
        raw = linalg.raw_slices([*c, [unit or ()]], field.characteristic)
        self._fill(field, labels, c, unit, raw, orientation, augmentations, validate)

    @classmethod
    def on_read(cls, field: Field, labels, c, unit, raw, orientation=None, augmentations=None,
                validate: bool = True) -> "AlgebraFamily":
        """A family whose table and unit the caller built as TPoly tuples
        together with their read ``raw``, as raw_slices would give it; the
        table is neither coerced nor read again."""
        out = object.__new__(cls)
        out._fill(field, labels, c, unit, raw, orientation, augmentations, validate)
        return out

    def _fill(self, field, labels, c, unit, raw, orientation, augmentations, validate):
        d = len(c)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "labels", tuple(str(x) for x in labels))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "orientation", _tpoly_vector(orientation, field, d))
        object.__setattr__(
            self,
            "augmentations",
            {k: _tpoly_vector(v, field, d) for k, v in (augmentations or {}).items()},
        )
        object.__setattr__(self, "raw", raw)
        if validate:
            validate_structure(c, unit, TPoly(field), read=raw)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraFamily is immutable")

    def at(self, value, validate: bool = True) -> FiniteAlgebra:
        """The fiber algebra at t = value, evaluated on the read by Horner's
        rule: at a/b, sum_s M_s (a/b)^s = (sum_s M_s a^s b^(top - s)) / b^top.
        The fiber is validated on these raw planes."""
        f, d, memo = self.field, self.dim, {}
        p = f.characteristic
        value = f.scalar(value)
        a, b = (value.value, 1) if p else value.value.as_integer_ratio()
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

        planes, unit = [fiber(pl, d) for pl in planes], fiber(unit, 1)
        scale = L * b**top
        c = [_box_plane(f, pl, scale, f.zero, (d, d), memo) for pl in planes]
        u = _box_plane(f, unit, scale, f.zero, (1, d), memo)[0] if self.unit is not None else None
        A = FiniteAlgebra(f, self.labels, c, u, validate=False)
        if validate:
            validate_structure(A.c, A.unit, f.zero, read=([*planes, unit], scale))
        return A

    def contract(self, col):
        """The d x d matrix (v(e_i e_j)) of a functional v on the read: ``col``
        is v as a raw d x 1 slice list, and the result, a slice list, is
        scaled by the table's L times v's scale."""
        p, d = self.field.characteristic, self.dim
        (*planes, _), _ = self.raw
        # row i*d + j of stacked[s] is row j of plane i: e_i e_j
        stacked = {}
        for i, plane in enumerate(planes):
            for s, X in plane:
                stacked.setdefault(s, [[0] * d] * (d * d))[i * d:(i + 1) * d] = X
        return [(s, [[x for x, in X[i * d:(i + 1) * d]] for i in range(d)])
                for s, X in linalg.slice_mul(sorted(stacked.items()), col, p)]

    def gram_slices(self):
        """The Gram matrix of the orientation pairing on the read, as a slice
        list, and its scale: the raw values are the Gram entries times it."""
        if self.orientation is None:
            raise BadUnit("family carries no orientation")
        p = self.field.characteristic
        (col,), L_phi = linalg.raw_slices([[[x] for x in self.orientation]], p)
        return self.contract(col), self.raw[1] * L_phi

    def gram(self):
        """Family Gram matrix of the orientation pairing, entries in k[t]."""
        slices, scale = self.gram_slices()
        return _box_plane(self.field, slices, scale, TPoly(self.field), (self.dim, self.dim), {})

    def serialize(self) -> dict:
        out = {
            "field": {"kind": self.field.kind, "characteristic": self.field.characteristic},
            "labels": list(self.labels),
            "structure_constants": [
                [[x.serialize() for x in row] for row in plane] for plane in self.c
            ],
        }
        if self.unit is not None:
            out["unit"] = [x.serialize() for x in self.unit]
        if self.orientation is not None:
            out["orientation"] = [x.serialize() for x in self.orientation]
        if self.augmentations:
            out["augmentations"] = {
                k: [x.serialize() for x in v] for k, v in self.augmentations.items()
            }
        return out
