"""Symmetric bilinear forms over exact fields.

Gram-matrix calculus: radicals, orthogonal complements, evenness and
hyperbolic embeddings, algebraic surgery, metabolic one-parameter paths,
elementary factorizations of special linear matrices, and Witt-type
invariants (rank, discriminant class, rational signature).

``orth_complement``, ``surgery``, ``metabolic_path`` and ``gro_member`` each
unbox the Gram matrix (and the subspace's rows) once and run on raw values
(ints mod p, Fractions over QQ): non-degeneracy by ``linalg.raw_det``,
perpendiculars by ``linalg.raw_kernel``, only the products they use by
``linalg.raw_mul``, and one boxing of each matrix they return.  Surgery's
core ``_surgery`` (and ``_line_surgery``, along one vector) takes the Gram
matrix as integer rows over a scale, which is how ``surgery`` hands it over
and how ``frobenius`` holds a pairing, and returns S, S·G and S·G·S^T raw;
``_form_of`` boxes a raw Gram matrix once into a trusted form.
``radical``, ``is_nondegenerate`` and ``witt_invariants`` are one boxed
``linalg`` call each, which unboxes once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import linalg
from .algebra import Subspace, _box_plane
from .errors import (
    BadParameter,
    Degenerate,
    DimensionMismatch,
    FieldMismatch,
    NotEven,
    NotIsotropic,
    NotLagrangian,
    NotSpecialLinear,
    SignatureUnavailable,
)
from .scalar import Field, Scalar, TPoly, as_tpoly, square_class, tpoly_eval


class _Gram:
    """A symmetric Gram matrix with entries coerced by ``_entry``: what
    BilinearForm (Scalars) and FormFamily (TPolys) share."""

    __slots__ = ("field", "dim", "gram")

    def __init__(self, field: Field, gram):
        entry = self._entry
        gram = tuple(tuple(entry(x, field) for x in row) for row in gram)
        d = len(gram)
        if any(len(r) != d for r in gram):
            raise DimensionMismatch("Gram matrix must be square")
        for i in range(d):
            for j in range(i + 1, d):
                if gram[i][j] != gram[j][i]:
                    raise DimensionMismatch(f"{self._name} not symmetric at ({i},{j})")
        self._fill(field, gram)

    @classmethod
    def _on_boxed(cls, field: Field, gram):
        """The form of a symmetric tuple matrix of boxed entries, as they
        are: no coercion or symmetry check (the caller's construction
        guarantees both)."""
        out = object.__new__(cls)
        out._fill(field, gram)
        return out

    def _fill(self, field, gram):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(gram))
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def serialize(self) -> dict:
        return {
            "field": {"kind": self.field.kind, "characteristic": self.field.characteristic},
            "gram": [[self._show(x) for x in row] for row in self.gram],
        }


class BilinearForm(_Gram):
    """A symmetric bilinear form, given by its Gram matrix."""

    __slots__ = ()
    _name = "Gram matrix"
    _show = str

    @staticmethod
    def _entry(x, field):
        return field.scalar(x)

    def apply(self, u, v) -> Scalar:
        u = [self.field.scalar(x) for x in u]
        v = [self.field.scalar(x) for x in v]
        return linalg.sum_dot(u, linalg.mat_vec(self.gram, v)) if self.dim else self.field.zero

    def __eq__(self, other):
        return (
            isinstance(other, BilinearForm)
            and self.field == other.field
            and self.gram == other.gram
        )

    def __hash__(self):
        return hash((self.field, self.gram))

    def __repr__(self):
        return f"BilinearForm(dim {self.dim} over {self.field})"


class FormFamily(_Gram):
    """A symmetric Gram matrix over k[t]; specializes to a BilinearForm."""

    __slots__ = ()
    _name = "family Gram"
    _entry = staticmethod(as_tpoly)
    _show = staticmethod(TPoly.serialize)

    def at(self, c) -> BilinearForm:
        return BilinearForm(
            self.field,
            [[tpoly_eval(x, c) for x in row] for row in self.gram],
        )


def radical(B: BilinearForm) -> Subspace:
    """Kernel of the Gram matrix."""
    return Subspace.on_rref(B.dim, linalg.kernel_basis(B.field, B.gram, B.dim))


def is_nondegenerate(B: BilinearForm) -> bool:
    return bool(linalg.det(B.field, B.gram))


def _raw(B: BilinearForm):
    """B's Gram matrix as raw rows, its characteristic and the zero raw_mul
    sums from (a Fraction at p = 0, the value a boxed product's Scalars hold)."""
    p = B.field.characteristic
    return linalg.unbox(B.gram, B.field)[1], p, 0 if p else Fraction(0)


def _check_perp(B: BilinearForm, W: Subspace, G):
    """orth_complement's preconditions, decided on the raw Gram matrix G."""
    if W.ambient_dim != B.dim:
        raise DimensionMismatch("subspace has wrong ambient dimension")
    if not linalg.raw_det([list(row) for row in G], B.field.characteristic):
        raise Degenerate("form is degenerate")


def _raw_rows(B: BilinearForm, W: Subspace):
    """W's rows as raw values; FieldMismatch when they lie over another field
    than B (as a product of W's rows with B's Gram matrix raises it)."""
    field, rows = linalg.unbox(W.rows)
    if field is not None and field != B.field:
        raise FieldMismatch(f"{field} vs {B.field}")
    return rows


def orth_complement(B: BilinearForm, W: Subspace) -> Subspace:
    """{v : B(v, w) = 0 for all w in W} = ker(W·G); requires B non-degenerate."""
    G, p, zero = _raw(B)
    _check_perp(B, W, G)
    WG = linalg.raw_mul(_raw_rows(B, W), G, p, zero)
    return Subspace.on_rref(B.dim, linalg._box(B.field, linalg.raw_kernel(WG, B.dim, p)))


def is_even(B: BilinearForm) -> bool:
    """Divisibility of all B(x,x) by 2; over F_2 this means alternating."""
    if B.field.characteristic != 2:
        return True
    return all(not B.gram[i][i] for i in range(B.dim))


def hyperbolic_form(field: Field, n: int) -> BilinearForm:
    """The 2n-dimensional hyperbolic form [[0, I], [I, 0]]."""
    if n < 0:
        raise BadParameter("n must be non-negative")
    z, o = field.zero, field.one
    d = 2 * n
    gram = [[z] * d for _ in range(d)]
    for i in range(n):
        gram[i][n + i] = o
        gram[n + i][i] = o
    return BilinearForm(field, gram)


def hyp_embed(B: BilinearForm):
    """An isometric embedding of an even form into Hyp(k^d).

    Returns a (2d x d) matrix E whose columns are the images of the basis
    vectors, so that E^T G_Hyp E equals gram(B) exactly.  The recipe follows
    the halving trick: write B = B' + B'^T (B' = B/2 away from
    characteristic 2, the strictly upper triangle over F_2) and embed with
    components (B', id).  B' is taken on the raw Gram matrix: times 2^-1
    mod p, or over QQ its integer numerators over twice their common
    denominator.  E is boxed once, through a value memo (``_box_plane``).
    """
    if not is_even(B):
        raise NotEven("form is not even (not alternating over F_2)")
    d, f = B.dim, B.field
    p = f.characteristic
    G, L = [[x.value for x in row] for row in B.gram], 1
    if p == 2:
        A = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(G)]
    elif p:
        half = pow(2, -1, p)
        A = [[x * half % p for x in row] for row in G]
    else:  # G/2: G's numerators over its common denominator D, over 2·D
        A, D = linalg._integer_rows(G)
        L = 2 * D
    eye = [[L * (i == j) for j in range(d)] for i in range(d)]
    return _box_plane(f, [(0, A + eye)], L, f.zero, (2 * d, d), {})


@dataclass(frozen=True)
class SurgeryResult:
    """Induced form on W-perp/W plus the recorded complement section."""

    form: BilinearForm
    section: tuple  # rows: the chosen complement basis of W in W-perp


def surgery(B: BilinearForm, W: Subspace) -> SurgeryResult:
    """Algebraic surgery along an isotropic subspace W of a non-degenerate B.

    On one raw read of the Gram matrix G: W·G gives both the isotropy test
    W·G·W^T = 0 and W-perp = ker(W·G); the section S is chosen by
    linalg.raw_complement, and the induced form S·G·S^T is W-perp/W's.
    """
    f, d = B.field, B.dim
    G, p, zero = _raw(B)
    if W.rows and W.field != f:
        raise FieldMismatch(f"{W.rows[0][0]} is not in {f}")
    # B.apply pairs the leading k coordinates of vectors of another length
    k = min(W.ambient_dim, d)
    Wk = [row[:k] for row in linalg.unbox(W.rows)[1]]
    WG = linalg.raw_mul(Wk, [row[:k] for row in G[:k]], p, zero)
    if any(map(any, linalg.raw_mul(WG, linalg.transpose(Wk), p, zero))):
        raise NotIsotropic("B does not vanish on W")
    _check_perp(B, W, G)
    G, L = linalg._integer_rows(G)
    S, _, D, L_S = _surgery(G, p, Wk, WG)
    return SurgeryResult(_form_of(f, D, L_S**2 * L), linalg._box(f, S))


def _form_of(field: Field, G, scale: int) -> BilinearForm:
    """The form whose Gram matrix is G / scale, G symmetric raw rows (ints
    mod p, or integers at p = 0), boxed once (``_box_plane``) and trusted."""
    d = len(G)
    return BilinearForm._on_boxed(field, _box_plane(field, [(0, G)], scale, field.zero, (d, d), {}))


def _surgery(G, p: int, W, WG):
    """surgery on raw values, its preconditions unchecked: G the raw Gram
    rows of a non-degenerate form (ints mod p, or integers: the Gram matrix
    times a scale), W raw rows spanning an isotropic subspace, WG = W·G (up
    to a scale).  The result depends on W's span alone: W-perp = ker(W·G),
    and the section S is chosen by which rows of W-perp leave the span of W.
    Returns S (raw RREF rows, Fractions at p = 0), and S·G and S·G·S^T on S
    read as integers over L_S (so over L_S and L_S² times G's scale), and
    L_S (1 at p > 0)."""
    d = len(G)
    perp = linalg.raw_kernel(WG, d, p)
    S = [perp[i] for i in linalg.raw_complement(W, perp, p, d)]
    SI, L_S = linalg._integer_rows(S)
    SG = linalg.raw_mul(SI, G, p, 0)
    return S, SG, linalg.raw_mul(SG, linalg.transpose(SI), p, 0), L_S


def _line_surgery(G, p: int, v):
    """_surgery along the line of v, a nonzero raw vector (ints mod p, or at
    p = 0 ints and Fractions), unchecked: G must be non-degenerate and
    B(v, v) = 0.  v itself spans the line, so no elimination is needed to
    hand it over."""
    [v], _ = linalg._integer_rows([v])
    return _surgery(G, p, [v], linalg.raw_mul([v], G, p, 0))


@dataclass(frozen=True)
class MetabolicPath:
    """Family [[0, I], [I, tA]] together with the adapted basis rows."""

    family: FormFamily
    adapted_basis: tuple  # rows (l_1..l_n, w_1..w_n) in ambient coordinates


def metabolic_path(B: BilinearForm, L: Subspace) -> MetabolicPath:
    """One-parameter path from a metabolic form to the hyperbolic one.

    In a basis adapted to the Lagrangian L the Gram matrix is
    [[0, I], [I, A]]; scaling A by t interpolates to Hyp(L) at t = 0 while
    the fiber at t = 1 is the input in the adapted basis.

    The adapted basis is L followed by W = P^-1·W0, where W0 holds the unit
    vectors e_c off L's pivot columns c and P = W0·G·L^T.  On one raw read
    of the Gram matrix G and the product L·G: B being non-degenerate, L-perp
    has dimension dim B - dim L, so L = L-perp exactly when dim B = 2 dim L
    and L·G·L^T = 0; G being symmetric, P = (columns c of L·G)^T; and
    A = W·G·W^T is P^-1·G[c, c]·P^-T.
    """
    f, d = B.field, B.dim
    G, p, zero = _raw(B)
    _check_perp(B, L, G)
    Lr = _raw_rows(B, L)
    n = len(Lr)
    LG = linalg.raw_mul(Lr, G, p, zero)
    if 2 * n != d or any(map(any, linalg.raw_mul(LG, linalg.transpose(Lr), p, zero))):
        raise NotLagrangian("subspace is not equal to its own perpendicular")
    free = sorted(set(range(d)) - {next(j for j, x in enumerate(row) if x) for row in Lr})
    Pinv = linalg.raw_invert([[row[c] for row in LG] for c in free], p)
    PG = linalg.raw_mul(Pinv, [[G[r][c] for c in free] for r in free], p, zero)
    A = linalg.raw_mul(PG, linalg.transpose(Pinv), p, zero)
    W = [[zero] * d for _ in range(n)]
    for row, prow in zip(W, Pinv):
        for c, x in zip(free, prow):
            row[c] = x
    z, o = TPoly(f), TPoly.const(f.one)
    fam = [[z] * d for _ in range(d)]
    at_t = {v: TPoly(f, (0, v)) for v in set(chain(*A))}  # v·t, one per value
    for i in range(n):
        fam[i][n + i] = o
        fam[n + i][i] = o
        fam[n + i][n:] = [at_t[v] for v in A[i]]
    return MetabolicPath(FormFamily(f, fam), L.rows + linalg._box(f, W))


@dataclass(frozen=True)
class WittInvariants:
    rank: int
    det_square_class: Scalar
    signature: int | None

    def serialize(self) -> dict:
        out = {"rank": self.rank, "det_square_class": str(self.det_square_class)}
        if self.signature is not None:
            out["signature"] = self.signature
        return out


def _congruence_diagonal(B: BilinearForm) -> list[Scalar]:
    """Diagonal of a congruent diagonal form (char != 2), by symmetric pivoting."""
    f = B.field
    d = B.dim
    g = [list(r) for r in B.gram]
    diag = []
    idx = list(range(d))
    for step in range(d):
        n = len(idx)
        # find a nonzero diagonal entry, or create one from an off-diagonal
        pivot = next((a for a in range(n) if g[idx[a]][idx[a]]), None)
        if pivot is None:
            offs = next(
                ((a, b) for a in range(n) for b in range(a + 1, n) if g[idx[a]][idx[b]]),
                None,
            )
            if offs is None:
                diag.extend(f.zero for _ in idx)
                break
            a, b = offs
            ia, ib = idx[a], idx[b]
            # e_a += e_b turns the 2x2 hyperbolic block into a nonzero diagonal
            for k in range(d):
                g[ia][k] = g[ia][k] + g[ib][k]
            for k in range(d):
                g[k][ia] = g[k][ia] + g[k][ib]
            pivot = a
        ip = idx[pivot]
        p = g[ip][ip]
        diag.append(p)
        idx.pop(pivot)
        inv = p.inverse()
        for a in idx:
            fct = g[a][ip] * inv
            if fct:
                for k in range(d):
                    g[a][k] = g[a][k] - fct * g[ip][k]
                for k in range(d):
                    g[k][a] = g[k][a] - fct * g[k][ip]
        if not idx:
            break
    return diag


def signature(B: BilinearForm) -> int:
    """Signature over the rationals by exact congruence diagonalization."""
    if B.field.characteristic != 0:
        raise SignatureUnavailable("signature needs an ordered field")
    if not is_nondegenerate(B):
        raise Degenerate("form is degenerate")
    return _signature(B)


def _signature(B: BilinearForm) -> int:
    """The signature of a non-degenerate form over QQ."""
    return sum(1 if x.value > 0 else -1 for x in _congruence_diagonal(B))


def witt_invariants(B: BilinearForm) -> WittInvariants:
    """Rank, determinant square class, and (over QQ) the signature; one
    determinant decides non-degeneracy for both."""
    d = linalg.det(B.field, B.gram)
    if not d:
        raise Degenerate("form is degenerate")
    sig = _signature(B) if B.field.characteristic == 0 else None
    return WittInvariants(B.dim, square_class(d), sig)


def gro_member(W: Subspace, n: int) -> bool:
    """Whether the restriction of the hyperbolic form Hyp(k^n) to W is
    non-degenerate (membership in the orthogonal Grassmannian chart)."""
    if W.ambient_dim != 2 * n:
        raise DimensionMismatch(f"ambient of W must be 2n = {2 * n}")
    if not W.rows:
        return True
    f, rows = linalg.unbox(W.rows)
    p = f.characteristic
    # a row times the Gram matrix [[0, I], [I, 0]] of Hyp(k^n) swaps its halves
    WH = [row[n:] + row[:n] for row in rows]
    restricted = linalg.raw_mul(WH, linalg.transpose(rows), p, 0 if p else Fraction(0))
    return bool(linalg.raw_det(restricted, p))


def _elementary(field: Field, n: int, i: int, j: int, lam: Scalar):
    e = [list(r) for r in linalg.identity(field, n)]
    e[i][j] = lam
    return linalg.mat(e)


def elementary_factorization(M) -> list:
    """Factor a determinant-1 matrix into elementary transvections.

    Returns matrices E_1, ..., E_m, each differing from the identity in one
    off-diagonal entry, with E_m * ... * E_1 = M.  Row swaps are never used;
    zero or non-unit pivots are repaired with auxiliary shears.
    """
    M = linalg.mat(M)
    n = len(M)
    if n == 0:
        return []
    field = M[0][0].field
    if linalg.det(field, M) != field.one:
        raise NotSpecialLinear("determinant is not 1")
    work = [list(r) for r in M]
    ops: list[tuple[int, int, Scalar]] = []  # left-multiplications, in order

    def addrow(i, j, lam):
        if not lam:
            return
        work[i] = [a + lam * b for a, b in zip(work[i], work[j])]
        ops.append((i, j, lam))

    for c in range(n):
        if c < n - 1:
            if not work[c][c]:
                r = next(r for r in range(c + 1, n) if work[r][c])
                addrow(c, r, field.one)
            if work[c][c] != field.one:
                r = next((r for r in range(c + 1, n) if work[r][c]), None)
                if r is None:
                    r = c + 1
                    addrow(r, c, field.one)
                addrow(c, r, (field.one - work[c][c]) / work[r][c])
        # pivot c is now 1 (for the last column this is forced by det = 1)
        for r in range(n):
            if r != c and work[r][c]:
                addrow(r, c, -work[r][c])
    factors = [_elementary(field, n, i, j, -lam) for (i, j, lam) in ops]
    factors.reverse()
    return factors
