"""Dense exact linear algebra over a base field.

At the API, matrices are tuples of row tuples of Scalar.  The field routines
``rref``, ``det`` and ``mat_mul`` -- and through them ``kernel_basis``,
``invert`` and ``solve_right`` -- unbox their input once to raw values (ints
in [0, p) over F_p, Fractions over QQ), run their one elimination or product
loop on those, and box the result once.
Unboxing checks that every entry is a Scalar of one field.  ``raw_rref``,
``raw_kernel``, ``raw_det``, ``raw_invert`` and ``raw_complement`` are the
reduced row echelon form, the kernel (read off one RREF of M with its
columns reversed), the determinant, the inverse and a greedy complement of
one row space in another (``forms.surgery``'s section), for callers that
already hold raw values: ``frobenius._nonsingular_point`` runs ``raw_det``
on every seeded trial of the witness searches for ``gorenstein_test`` and
``one_generic``; the Gram routines of ``forms`` and Strassen's test in
``tensors`` run on raw values from end to end.

``_integer_rows`` is the one reader of QQ values into integers, over their
least common denominator: for ``raw_slices``, the raw coordinates handed to
``algebra._table_on_rows``, the packed commutation check, ``forms.hyp_embed``,
``poly._monomial_algebra``, ``AlgebraFamily.at`` and, row by row, the
eliminations and ``tensors``.

``_eliminate`` is the one elimination loop over k: Gauss-Jordan for
``raw_rref`` (and the kernel, inverse and complement read off it), forward
for ``raw_det``.  Mod p its pivot rows are monic.  Over QQ, where the raw
routines take ints and Fractions mixed, it runs on each row read once as
integers over its common denominator, by Bareiss's fraction-free step
(Bareiss 1968; Nakos, Turner & Williams 1997), whose exact divisions need
no content gcd.  What they return is made of Fractions; rows past the rank
are left unspecified.

Row-space bases are always canonicalized to reduced row echelon form, so
subspace equality is literal matrix equality.  ``sum_dot``, ``mat_vec`` and
``vec_mat`` stay ring-generic: they also act on TPoly entries.

Matrices over k[t] are read by ``raw_slices`` into slice lists (one matrix
of raw coefficients per power of t; over QQ integers, the coefficients
times a common denominator L).  A structure table is read once, and the
read lives on the object that owns it (``algebra._Read``); this module
never sees the boxed table again.  ``raw_mul``, the one product loop, takes
raw values only; ``slice_mul`` convolves it over k[t] on slice lists.  They
serve the unit law of the structure-table checks, the contractions
(``_Table.contract``, ``augmentation_check``, ``NonUnitalOriented``), the
Gram products of ``forms`` and Strassen's test in ``tensors``.

The cost of ``raw_mul`` follows the nonzero terms, so products with sparse
factors (the normalized slices of CW_q, unit-vector selections) cost little
more than their nonzero terms.

Two products run on packed rows instead (Kronecker substitution; Harvey,
J. Symb. Comput. 2009): ``first_noncommuting``, the exact commutation check
behind ``algebra.validate_structure`` (associativity) and ``tensors``'
Strassen test, and ``algebra._table_on_rows``, which builds every new
table.  Each row of a k[t] slice list becomes one Python int whose K-bit
slots hold its coefficients, power by power (``_packed_rows``), and each
entry x(t) one int whose slots are spaced a row apart (``_packed_entries``),
so a product row is a few big-int multiply-adds.  ``_slot_width`` chooses K
from a bound on a slot, so no slot spills into the next, and reads packed
slots back: exactly at p = 0, where packed rows also compare exactly as
ints, and mod p at p > 0.

``pencil`` packs the contractions M(a) = sum_k a_k M_k of a pencil of n
matrices the same way: each M_k is one int of K-bit slots, packed once at C
speed (``struct`` words, or by shift when a slot is wider than 64 bits),
and M(a) is n big-int multiply-adds and one read, each slot bounded by
n·top·top_a (top the largest |entry| of an M_k, or p - 1; top_a that of
a).  It serves the trace form of ``frobenius._nilradical_and_socle`` and
every seeded trial of ``gorenstein_test`` (one pencil per call, shared by
both) and of ``tensors.one_generic``, and ``Tensor3._contract``, the slice
of Strassen's test and ``slice_first``.

``bareiss`` is the one fraction-free elimination over k[t].  It works on raw
coefficient lists (``poly_entries`` of a slice list): ints mod p, or over QQ
integers.  Its products and differences are ``scalar.poly_mul`` and
``scalar.poly_sub``, which the TPoly operators use as well; this module
imports them, so ``linalg.poly_mul`` and ``linalg.poly_sub`` still work.
Its exact division is ``poly_divexact``.  It serves
``families.family_det_is_unit``, the socle solve of
``families.family_socle_generator`` and ``det_in_domain``, which unboxes a
TPoly matrix, runs it and boxes the determinant.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import chain, combinations, compress, starmap
from math import lcm, prod
from operator import mul
from struct import Struct

from .errors import DimensionMismatch, FieldMismatch, Singular, ZeroInput
from .scalar import Field, Scalar, TPoly, poly_mul, poly_sub

_QQ_ZERO = Fraction(0)
# (bits, typecode) of the array types whose words hold packed slots, by bytes
_WORDS = sorted((array(c).itemsize * 8, c) for c in "BHIQ")
# the struct code of a signed little-endian word of each width ("<" sizes)
_SIGNED = {8: "b", 16: "h", 32: "i", 64: "q"}


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(field: Field, n: int):
    z, o = field.zero, field.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def unbox(m, field: Field = None):
    """The raw values of a Scalar matrix as a list of row lists, and its field.

    Every entry must be a Scalar of ``field`` (of one common field when
    ``field`` is None); otherwise FieldMismatch.  The field is None only when
    the matrix has no entries.
    """
    out = []
    for row in m:
        raw = []
        for x in row:
            if not isinstance(x, Scalar):
                raise FieldMismatch(f"{x!r} is not a field element")
            if x.field is not field:
                if field is None:
                    field = x.field
                elif x.field != field:
                    raise FieldMismatch(f"{field} vs {x.field}")
            raw.append(x.value)
        out.append(raw)
    return field, out


def _box(field: Field, rows):
    """Inverse of unbox: raw rows (already reduced) to a tuple matrix of Scalar."""
    return tuple(tuple(Scalar(field, x) for x in row) for row in rows)


def raw_mul(a, b, p: int, zero):
    """Product of two matrices of raw values whose entries sum from ``zero``.

    The entries are ints, and the product is reduced mod p when p > 0; at
    p = 0 they may also be Fractions, and each entry has the type of
    ``zero`` plus its terms.  Each row of the product is a combination of the
    nonzero rows of b, so the work follows the nonzero terms: a row's
    accumulator starts from its first term x·b[k] (x = a[i][k] nonzero, b[k]
    a nonzero row), later terms add to it, and only such a row is reduced
    mod p.  A row of a that meets no nonzero row of b costs one fresh row
    [zero] * ncols.  No two rows of the product share a list.
    """
    ncols = len(b[0]) if b else 0
    support = [(k, brow) for k, brow in enumerate(b) if any(brow)]
    out = []
    for row in a:
        acc = None
        for k, brow in support:
            x = row[k]
            if x:
                if acc is None:
                    x = zero + x  # at p = 0, the type the sum from zero has
                    acc = [x * y if y else zero for y in brow]
                else:
                    acc = [s + x * y if y else s for s, y in zip(acc, brow)]
        if acc is None:
            out.append([zero] * ncols)
        else:
            out.append([s % p for s in acc] if p else acc)
    return out


def mat_mul(a, b):
    field, ra = unbox(a)
    field, rb = unbox(b, field)
    p = field.characteristic if field else 0
    return _box(field, raw_mul(ra, rb, p, 0 if p else _QQ_ZERO))


def raw_slices(mats, p: int):
    """Matrices of Scalars or TPolys as slice lists for slice_mul, and L.

    Entries are ints mod p, or over QQ the coefficients times L, their common
    denominator (``_integer_rows``; L = 1 over F_p); an identity of products
    of two matrices, both sides scaled by L², holds exactly when it held
    before.
    """
    raw = []
    for m in mats:
        try:
            raw.append([[[x.value for x in row] for row in m]])
        except AttributeError:  # TPoly entries: one coefficient matrix per power of t
            coeffs = [[[a.value for a in x.coeffs] if isinstance(x, TPoly) else [x.value]
                       for x in row] for row in m]
            deg = max((len(x) for row in coeffs for x in row), default=0)
            raw.append([[[x[s] if s < len(x) else 0 for x in row] for row in coeffs]
                        for s in range(deg)])
    rows, L = _integer_rows([row for ms in raw for M in ms for row in M])
    rows = iter(rows)
    raw = [[[next(rows) for _ in M] for M in ms] for ms in raw]
    return [[(s, M) for s, M in enumerate(ms) if any(map(any, M))] for ms in raw], L


def _integer_rows(rows):
    """Rows of ints and Fractions as rows of integers over their least common
    denominator L, and L; rows of ints only are returned as they are."""
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    L = lcm(*{den for row in ratios for _, den in row})
    return [[num * (L // den) for num, den in row] for row in ratios], L


def slice_mul(a, b, p: int):
    """Product of two matrices over k[t] given as slice lists.

    [(s, M_s), ...], s increasing, stands for sum_s M_s t^s, M_s as for
    raw_mul; zero slices may be left out, and then cost nothing.  The product
    lists, for each u = s + r, the sum of M_s N_r (mod p when p > 0), which
    may be zero.
    """
    out = {}
    for s, x in a:
        for r, y in b:
            m = raw_mul(x, y, p, 0)
            if s + r in out:
                m = [[u + v for u, v in zip(ru, rv)] for ru, rv in zip(out[s + r], m)]
                m = [[v % p for v in row] for row in m] if p else m
            out[s + r] = m
    return sorted(out.items())


def slice_row(slices, j):
    """Row j of a matrix given as a slice list: its nonzero (s, row) pairs."""
    return [(s, m[j]) for s, m in slices if any(m[j])]


def _packed_rows(m, n: int, K: int, step: int):
    """The n rows of a slice list as ints: row r holds coefficient x of t^s
    e_l at bit K·l + step·s."""
    P = [0] * n
    for s, X in m:
        for r, row in enumerate(X):
            if any(row):
                acc = 0
                for x in reversed(row):
                    acc = (acc << K) + x
                P[r] += acc << (step * s)
    return P


def _packed_entries(m, n: int, step: int):
    """The n rows of a slice list by their entries x(t), each the int
    sum_s x_s << step·s: a row is a mask of its nonzero entries and those
    entries, or None when it is zero.  With step = K times the width of
    packed rows P (``_packed_rows``), sum(map(mul, entries, compress(P,
    mask))) is the row times the matrix of P, packed the same way."""
    if len(m) == 1 and not m[0][0]:
        E = m[0][1]
    else:
        E = [[0] * len(m[0][1][0]) for _ in range(n)] if m else [[]] * n
        for s, X in m:
            for Er, row in zip(E, X):
                for l, x in enumerate(row):
                    if x:
                        Er[l] += x << (step * s)
    return [([bool(x) for x in Er], [x for x in Er if x]) if any(Er) else None for Er in E]


def _slot_width(bound: int, p: int, nslots: int):
    """(K, read) for packed ints of ``nslots`` K-bit slots, each slot holding
    a value in [-bound, bound].

    off, bound rounded up to a multiple of p (bound itself at p = 0), brings
    a slot into [0, 2^K): read(v) adds off to every slot, unpacks them,
    lowest first (by bytes into an ``array`` when K fits a machine word, else
    by shift and mask), and returns them mod p at p > 0, or less off again
    at p = 0.  Since 2·bound < 2^K, two such packed ints at p = 0 are equal
    only when every slot is.  K is widened to the first array word that
    holds it.
    """
    off = -(-bound // p) * p if p else bound
    K = (bound + off).bit_length()
    K, code = next(((w, c) for w, c in _WORDS if w >= K), (K, None))
    offsets = off * ((1 << K * nslots) - 1) // ((1 << K) - 1)
    nbytes, mask = K // 8 * nslots, (1 << K) - 1

    def read(v):
        v += offsets
        if code:
            slots = array(code, v.to_bytes(nbytes, "little"))
            if sys.byteorder == "big":
                slots.byteswap()
        else:
            slots = [(v >> (K * t)) & mask for t in range(nslots)]
        return list(map(p.__rmod__, slots) if p else map(off.__rsub__, slots))

    return K, read


def pencil(planes, p: int, top_a: int, strided: bool):
    """The evaluator a -> M(a) = sum_k a_k M_k of a pencil of matrices read
    from ``planes``, a list of raw row lists: ints in [0, p), or at p = 0
    ints of any sign.  When ``strided``, M_k[i][j] = planes[i][j][k] (the
    pencil phi -> (phi(e_i e_j)) of a table); otherwise M_k = planes[k].
    M(a), for ints a_k with |a_k| <= top_a, is returned as row lists, mod p
    at p > 0 and exact at p = 0.

    Each M_k is packed once into one int of K-bit slots, its entries row by
    row, so M(a) is read(sum(map(mul, a, packed))): n big-int multiply-adds
    and one ``_slot_width`` read.  A slot sums n terms of size at most
    top·top_a, for top = p - 1 (or the largest |entry|), and that bound sets
    K.  When K is a machine word the rows go by ``struct`` into one buffer
    of signed little-endian K-bit words, and M_k is int.from_bytes of its
    slice of them, strided or blocked, less 2^K for each negative slot
    (whose top bit is set: |entry| < 2^(K-1)); wider slots are packed by
    shift (``_packed_rows``).
    """
    rows = list(chain.from_iterable(planes))
    width = len(rows[0]) if rows else 0
    if strided:
        n, nrows = width, len(planes)
        ncols = len(rows) // nrows if nrows else 0
    else:
        n, nrows, ncols = len(planes), len(rows) // len(planes) if planes else 0, width
    m = nrows * ncols
    top = p - 1 if p else max(max(map(max, rows)), -min(map(min, rows))) if n * m else 0
    K, read = _slot_width(max(n * top * top_a, top), p, m)
    code = dict(_WORDS).get(K)
    if code:
        words, ones = array(code), ((1 << K * m) - 1) // ((1 << K) - 1)
        words.frombytes(b"".join(starmap(Struct(f"<{width}{_SIGNED[K]}").pack, rows)))
        packed = []
        for k in range(n):
            u = int.from_bytes(words[k::n] if strided else words[k * m:(k + 1) * m], "little")
            # read unsigned, a negative slot x is x + 2^K: take 2^K off where the top bit is set
            packed.append(u if p else u - ((u >> (K - 1) & ones) << K))
    else:
        values = list(chain.from_iterable(rows))
        packed = _packed_rows([(0, [values[k::n] if strided else values[k * m:(k + 1) * m]
                                    for k in range(n)])], n, K, 0)

    def at(a):
        flat = read(sum(map(mul, a, packed)))
        if not ncols:
            return [[] for _ in range(nrows)]
        return [flat[r:r + ncols] for r in range(0, m, ncols)]

    return at


def first_noncommuting(mats, p: int):
    """The first (i, k, row), i < k, where row ``row`` of mats[i]·mats[k]
    differs from that of mats[k]·mats[i]; None when the matrices commute.

    Each matrix is a square slice list, as for slice_mul: ints in [0, p), or
    at p = 0 ints and Fractions, all scaled to integers by one common
    denominator, which leaves commutation alone.  Rows are packed
    (``_packed_rows``, ``_packed_entries``), so row j of mats[i]·mats[k] is
    sum_m E_i[j][m] P_k[m] over the nonzero entries.  A product slot sums
    at most d·S terms of size at most top², for S powers of t and top = p - 1
    (or the largest |entry|); ``_slot_width`` keeps every slot of that bound
    inside its bits.  At p = 0 the two packed rows are compared as ints; at
    p > 0 their difference is read and each slot tested mod p.  Pairs and
    rows are scanned in order, so the first violation found is the first in
    that order.
    """
    d = next((len(X) for m in mats for _, X in m), 0)
    S = 1 + max((s for m in mats for s, _ in m), default=0)
    if p:
        top = p - 1
    else:
        rows, _ = _integer_rows([row for m in mats for _, X in m for row in X])
        rows = iter(rows)
        mats = [[(s, [next(rows) for _ in X]) for s, X in m] for m in mats]
        top = max((max(map(abs, chain.from_iterable(X))) for m in mats for _, X in m), default=0)
    K, read = _slot_width(d * S * top * top, p, d * (2 * S - 1))
    packed = [(_packed_rows(m, d, K, K * d), _packed_entries(m, d, K * d)) for m in mats]
    for i, k in combinations(range(len(mats)), 2):
        Pi, Ei = packed[i]
        Pk, Ek = packed[k]
        for j in range(d):
            a, b = Ei[j], Ek[j]
            if a is None and b is None:
                continue
            ab = sum(map(mul, a[1], compress(Pk, a[0]))) if a else 0
            ba = sum(map(mul, b[1], compress(Pi, b[0]))) if b else 0
            if ab != ba and (not p or any(read(ab - ba))):
                return i, k, j
    return None


def sum_dot(u, v):
    acc = None
    for x, y in zip(u, v):
        if not x or not y:
            continue
        acc = x * y if acc is None else acc + x * y
    if acc is None:
        # all terms vanished; recover a zero of the right kind
        return u[0] * v[0] if u else 0
    return acc


def mat_vec(m, v):
    return tuple(sum_dot(row, v) for row in m)


def vec_mat(v, m):
    return mat_vec(transpose(m), v)


def _eliminate(work, p: int, ncols: int, jordan: bool):
    """The one elimination loop over k, in place on raw row lists (ints mod
    p, or at p = 0 integers); returns (pivot columns, factor), the factor
    sign·(product of the pivots) mod p, or sign·(last pivot) at p = 0.

    Pivots are sought in the first ``ncols`` columns; a row whose entry f in
    the pivot column is 0 is left alone.  With ``jordan`` every other row is
    reduced, else only the rows below, and a column without a pivot ends the
    loop with the factor 0.  Mod p the pivot row prow is made monic, and a
    row takes row - f·prow (Gauss).  At p = 0 it takes Bareiss's step
    row <- (pc·row - f·prow) / prev, exact since entries stay minors of the
    input; a row left alone owes pc / prev, so it divides by the pivot it was
    last reduced at (its stamp), and a pivot row is first scaled by
    prev / stamp.
    """
    n = len(work)
    pivots, sign, factor, stamp = [], 1, 1, [1] * n
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, n) if work[i][c]), None)
        if pivot is None:
            if jordan:
                continue
            return pivots, 0
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            stamp[r], stamp[pivot] = stamp[pivot], stamp[r]
            sign = -sign
        prow = work[r]
        if p:
            factor, inv = factor * prow[c] % p, pow(prow[c], -1, p)
            # rows r.. vanish left of c: the pivot row's support is c and nz
            nz = [j for j in range(c + 1, len(prow)) if prow[j]]
            prow[c] = 1
            for j in nz:
                prow[j] = prow[j] * inv % p
        else:  # factor is prev; new row lists, so no row handed in is written to
            if stamp[r] != factor:
                prow = work[r] = [x * factor // stamp[r] for x in prow]
            pc = factor = stamp[r] = prow[c]
        for i in range(0 if jordan else r + 1, n):
            row = work[i]
            f = row[c]
            if f and i != r:
                if p:
                    row[c] = 0
                    for j in nz:
                        row[j] = (row[j] - f * prow[j]) % p
                else:
                    work[i] = [(pc * x - f * y) // stamp[i] for x, y in zip(row, prow)]
                    stamp[i] = pc
        pivots.append(c)
    return pivots, sign * factor % p if p else sign * factor


def raw_rref(work, p: int, ncols=None):
    """Bring a list of raw row lists to reduced row echelon form in place;
    returns the pivot columns.

    Pivots are sought in the first ``ncols`` columns (all by default); row
    operations act on whole rows.  This is ``_eliminate``'s Gauss-Jordan, at
    p = 0 fraction-free (Bareiss; Nakos, Turner & Williams) on integer rows.
    The pivot rows come first, in order: ints mod p, or at p = 0 Fractions,
    each integer row over its pivot.  The rows past them vanish on the first
    ``ncols`` columns and are otherwise unspecified.
    """
    if ncols is None:
        ncols = len(work[0]) if work else 0
    if not p:
        work[:] = [_integer_rows([row])[0][0] for row in work]
    pivots, _ = _eliminate(work, p, ncols, True)
    if not p:
        for r, (c, row) in enumerate(zip(pivots, work)):
            work[r] = [Fraction(x, row[c]) if x else _QQ_ZERO for x in row]
    return pivots


def rref(rows, ncols=None):
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Pivots are sought in the first ``ncols`` columns (all by default); row
    operations act on whole rows.
    """
    field, work = unbox(rows)
    if field is None:
        return (), ()
    pivots = raw_rref(work, field.characteristic, ncols)
    return _box(field, work[: len(pivots)]), tuple(pivots)


def rank(rows, ncols=None):
    return len(rref(rows, ncols)[0])


def raw_kernel(rows, ncols: int, p: int):
    """RREF basis of the right null space {x : M x = 0} of a matrix of raw
    values, as raw row lists; ``rows`` is left unchanged.

    One raw_rref, of M' = M's first ``ncols`` columns reversed.  A free
    column f of M' gives e_f - sum_r M'[r][f]·e_(P_r), which in M's order
    leads at f's mirror and vanishes on every other free column: read by
    increasing mirror, these vectors already are the kernel's RREF.
    """
    last = ncols - 1
    work = [row[:ncols][::-1] for row in rows]
    pivots = raw_rref(work, p, ncols)
    zero, one = (0, 1) if p else (_QQ_ZERO, Fraction(1))
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots), reverse=True):
        v = [zero] * ncols
        v[last - f] = one
        for row, c in zip(work, pivots):
            v[last - c] = -row[f] % p if p else -row[f]
        basis.append(v)
    return basis


def kernel_basis(field: Field, rows, ncols: int):
    """RREF basis of the right null space {x : M x = 0}."""
    _, work = unbox(rows, field)
    return _box(field, raw_kernel(work, ncols, field.characteristic))


def raw_det(work, p: int):
    """Determinant of a square matrix of raw values, by ``_eliminate``'s
    forward half: mod p reducing the rows in place; at p = 0 a Fraction, by
    Bareiss (1968) on the rows read as integers (left alone)."""
    if not p:
        read = [_integer_rows([row]) for row in work]
        work, den = [row for (row,), _ in read], prod(L for _, L in read)
    _, factor = _eliminate(work, p, len(work), False)
    return factor if p else Fraction(factor, den)


def det(field: Field, m):
    """Determinant by exact Gaussian elimination (field entries)."""
    _, work = unbox(m, field)
    return Scalar(field, raw_det(work, field.characteristic))


def poly_divexact(a, b, p: int):
    """The quotient a / b of raw coefficient lists, b nonzero, when b divides
    a: over F_p[t], or over Z[t] at p = 0, where every quotient coefficient
    must be an integer.  Raises ZeroInput on a nonzero remainder."""
    rem, n, lead = list(a), len(b), b[-1]
    inv = pow(lead, -1, p) if p else None
    q = [0] * max(len(rem) - n + 1, 0)
    for k in reversed(range(len(q))):
        top = rem[k + n - 1]
        if not top:
            continue
        if p:
            f = top * inv % p
        else:
            f, r = divmod(top, lead)
            if r:
                raise ZeroInput("inexact division of coefficient lists")
        q[k] = f
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - f * y) % p if p else rem[k + i] - f * y
    if any(rem):
        raise ZeroInput("inexact division of coefficient lists")
    return q


def poly_entries(slices, n: int, m: int):
    """The n x m matrix of raw coefficient lists of a slice list (as for
    slice_mul), trailing zeros dropped."""
    out = [[[] for _ in range(m)] for _ in range(n)]
    for s, M in slices:
        for i, row in enumerate(M):
            for j, v in enumerate(row):
                if v:
                    e = out[i][j]
                    e += [0] * (s - len(e)) + [v]
    return out


def bareiss(work, p: int) -> bool:
    """Bareiss's fraction-free elimination (1968), in place, of an n x (n + k)
    matrix of raw coefficient lists over F_p[t], or at p = 0 over Z[t] (a
    matrix over Q[t] times a common denominator L, whose determinant is then
    L^n times the original one), with row swaps.

    Each entry of the recurrence is a minor of the input (Sylvester's
    identity), so every division is exact; poly_divexact checks it.  Returns
    False when the left n x n block is found singular before its last
    column.  Otherwise row i vanishes left of column i, every row is a
    combination of the input rows, and the last row is signed so that its
    entry in column n - 1 is the determinant of the left block.
    """
    n = len(work)
    sign, prev = 1, [1]
    for c in range(n - 1):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return False
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            sign = -sign
        prow = work[c]
        pc = prow[c]
        for row in work[c + 1 :]:
            f = row[c]
            for j in range(c + 1, len(row)):
                x = poly_sub(poly_mul(pc, row[j], p), poly_mul(f, prow[j], p), p)
                row[j] = poly_divexact(x, prev, p)
            row[c] = []
        prev = pc
    if sign < 0:
        work[-1] = [[-v % p for v in x] if p else [-v for v in x] for x in work[-1]]
    return True


def det_in_domain(zero, one, m):
    """Determinant of a square matrix over k[t], ``zero`` being TPoly(k) and
    ``one`` the determinant of the empty matrix: one raw_slices read, bareiss
    on the raw coefficient lists, and one boxing."""
    if not m:
        return one
    field = zero.field
    p = field.characteristic
    (slices,), L = raw_slices([m], p)
    work = poly_entries(slices, len(m), len(m))
    det = work[-1][-1] if bareiss(work, p) else []
    return TPoly(field, det if p else [Fraction(v, L ** len(m)) for v in det])


def raw_invert(work, p: int):
    """Inverse of a square matrix of raw values, as raw row lists: the right
    half of the RREF of [M | I].  The rows are extended, then reduced in
    place by raw_rref.  A matrix that is not square raises DimensionMismatch,
    a singular one Singular."""
    n = len(work)
    if any(len(row) != n for row in work):
        raise DimensionMismatch("matrix is not square")
    for i, row in enumerate(work):
        row.extend(int(j == i) for j in range(n))
    if len(raw_rref(work, p, n)) < n:
        raise Singular("matrix is not invertible")
    return [row[n:] for row in work]


def invert(field: Field, m):
    """Inverse of a square matrix: one unboxing, raw_invert, one boxing."""
    found, work = unbox(m)
    if found is not None and found != field:
        raise FieldMismatch(f"{found} vs {field}")
    return _box(field, raw_invert(work, field.characteristic))


def solve_right(field: Field, m, b):
    """The unique x with M x = b; raises Singular otherwise."""
    ncols = len(m[0]) if m else 0
    aug = [list(r) + [bv] for r, bv in zip(m, b)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        raise Singular("inconsistent system")
    if len(pivots) < ncols:
        raise Singular("underdetermined system")
    return tuple(row[ncols] for row in red)


def raw_complement(inner, outer, p: int, ncols: int):
    """Indices of the rows of ``outer`` that complete ``inner`` to a basis of
    the outer row space, both given as raw row lists and compared on their
    first ``ncols`` columns; raises DimensionMismatch when they cannot.

    The choice is a greedy scan in row order: a row is taken while the rank
    is below len(outer) and the row raises it.  Those are the pivot columns
    of one RREF of the transpose of [inner; outer] (a column is a pivot iff
    it leaves the span of the columns before it), so raw_rref runs once.
    """
    k, m = len(inner), len(outer)
    cols = [list(col) for col in zip(*(row[:ncols] for row in [*inner, *outer]))]
    pivots = raw_rref(cols, p, k + m)
    if sum(c < k for c in pivots) > m or len(pivots) < m:
        raise DimensionMismatch("inner space is not contained in outer space")
    return [c - k for c in pivots[:m] if c >= k]
