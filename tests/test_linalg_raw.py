"""raw_rref and raw_det, one elimination loop over k, against the loops
they replace.

Both run ``linalg._eliminate``: raw_rref in Gauss-Jordan mode, raw_det in
forward mode.  At p = 0 it reads each row once as integers over its common
denominator and runs Bareiss's fraction-free step; raw_rref builds Fractions
only for the pivot rows.  Mod p it is Gauss with a monic pivot row.  The
references below are the Gauss-Jordan and Gaussian loops on Fractions, the
mod-p loops that raw_rref and raw_det ran before they shared one, and the
kernel, inverse and complement read off them.  Each case draws its field
from QQ, GF(2), GF(7) and GF(2**61 - 1).  On derandomized matrices -- over
QQ int and Fraction entries mixed, numerators and denominators above 2**64;
mod p residues, 0 and p - 1 among them; zero, duplicate and scaled rows,
rows in any order (so that the pivot search swaps), rank-deficient and empty
matrices, ``ncols`` below the row width, as in raw_invert's [M | I] and
raw_complement's stack -- both sides must return the same pivots and pivot
rows (every entry a Fraction over QQ, a residue mod p), kernels, inverses
(or the same Singular or DimensionMismatch), complements (or the same
DimensionMismatch) and determinants (a Fraction over QQ, signed by the row
swaps).  ``ref_kernel`` takes two eliminations, of M and of the vectors read
off it; raw_kernel must take one, on M's columns reversed, and leave the rows
handed to it as they were.

``raw_slices`` reads boxed matrices over k and k[t] through the one QQ
reader, ``linalg._integer_rows``; ``ref_raw_slices`` is the read it replaced,
whose last step was ``scaled_slices`` (``as_integer_ratio`` on every
entry).  Both must give the same slice lists and L over QQ and F_p, on ints
of both signs, Fractions with denominators past 2**64, TPoly entries, and
zero and empty matrices.
"""

from fractions import Fraction
from math import lcm
from unittest import mock

from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, linalg
from gorlab.errors import DimensionMismatch, Singular
from gorlab.scalar import TPoly

CASES = settings(derandomize=True, max_examples=400, deadline=None)
PRIMES = (2, 7, 2**61 - 1)


# -- the references: Fraction loops over QQ, the former mod-p loops ---------


def ref_rref_qq(work, ncols=None):
    """Gauss-Jordan on Fractions, in place; returns the pivot columns."""
    work[:] = [[Fraction(x) for x in row] for row in work]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        nz = [j for j in range(c, len(prow)) if prow[j]]
        inv = 1 / prow[c]
        for j in nz:
            prow[j] = prow[j] * inv
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                for j in nz:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
    return pivots


def ref_rref_mod_p(work, p, ncols=None):
    """raw_rref's Gauss-Jordan loop mod p as it stood alone, in place."""
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        pc = prow[c]
        nz = [j for j in range(c, len(prow)) if prow[j]]
        inv = pow(pc, -1, p)
        for j in nz:
            prow[j] = prow[j] * inv % p
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                for j in nz:
                    row[j] = (row[j] - f * prow[j]) % p
        pivots.append(c)
        r += 1
    return pivots


def ref_rref(work, p, ncols=None):
    return ref_rref_mod_p(work, p, ncols) if p else ref_rref_qq(work, ncols)


def ref_kernel(rows, ncols, p):
    pivots = ref_rref(rows, p, ncols)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for fcol in range(ncols):
        if fcol not in pivots:
            v = [zero] * ncols
            v[fcol] = one
            for r, pcol in enumerate(pivots):
                v[pcol] = -rows[r][fcol] % p if p else -rows[r][fcol]
            basis.append(v)
    ref_rref(basis, p, ncols)
    return basis


def ref_invert(work, p):
    n = len(work)
    if any(len(row) != n for row in work):
        raise DimensionMismatch("matrix is not square")
    for i, row in enumerate(work):
        row.extend(int(j == i) if p else Fraction(int(j == i)) for j in range(n))
    if len(ref_rref(work, p, n)) < n:
        raise Singular("matrix is not invertible")
    return [row[n:] for row in work]


def ref_complement(inner, outer, p, ncols):
    k, m = len(inner), len(outer)
    cols = [list(col) for col in zip(*(row[:ncols] for row in [*inner, *outer]))]
    pivots = ref_rref(cols, p, k + m)
    if sum(c < k for c in pivots) > m or len(pivots) < m:
        raise DimensionMismatch("inner space is not contained in outer space")
    return [c - k for c in pivots[:m] if c >= k]


def ref_det_qq(work):
    """Gaussian elimination on Fractions."""
    work = [[Fraction(x) for x in row] for row in work]
    n = len(work)
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            out = -out
        prow = work[c]
        out = out * prow[c]
        inv = 1 / prow[c]
        nz = [j for j in range(c + 1, n) if prow[j]]
        for row in work[c + 1 :]:
            f = row[c]
            if f:
                f = f * inv
                for j in nz:
                    row[j] -= f * prow[j]
    return out


def ref_det_mod_p(work, p):
    """raw_det's Gaussian elimination mod p as it stood alone, on a copy."""
    work = [list(row) for row in work]
    n = len(work)
    out = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            out = -out
        prow = work[c]
        out = out * prow[c] % p
        inv = pow(prow[c], -1, p)
        nz = [j for j in range(c + 1, n) if prow[j]]
        for row in work[c + 1 :]:
            f = row[c]
            if f:
                f = f * inv % p
                for j in nz:
                    row[j] = (row[j] - f * prow[j]) % p
    return out % p


def ref_det(work, p):
    return ref_det_mod_p(work, p) if p else ref_det_qq(work)


# -- matrices over QQ and F_p ------------------------------------------------

HUGE = st.integers(2**64, 2**80)
ENTRIES = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(lambda s, n: s * n, st.sampled_from([1, -1]), HUGE),
    st.builds(Fraction, st.integers(-(2**80), 2**80), HUGE),
)


def entries(p):
    """Raw values: ENTRIES over QQ; mod p residues, small ones, 0 and p - 1
    more often than chance."""
    if not p:
        return ENTRIES
    return st.one_of(st.just(0), st.integers(0, min(p - 1, 3)), st.just(p - 1),
                     st.integers(0, p - 1))


@st.composite
def raw_rows(draw, p, width, nrows=None):
    """Rows of entries(p), and then zero rows and multiples of earlier rows
    (a factor of 1 makes a duplicate) inserted among them."""
    n = draw(st.integers(0, 5)) if nrows is None else nrows
    rows = [[draw(entries(p)) for _ in range(width)] for _ in range(n)]
    for _ in range(0 if nrows is not None else draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            f = draw(st.sampled_from([1, 1, -1, 2**70] + ([] if p else [Fraction(2, 3)])))
            new = [x * f % p if p else x * f for x in rows[draw(st.integers(0, len(rows) - 1))]]
        else:
            new = [draw(st.sampled_from([0] if p else [0, Fraction(0)])) for _ in range(width)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


FIELDS = st.sampled_from((0, *PRIMES))


@st.composite
def rref_cases(draw):
    p = draw(FIELDS)
    width = draw(st.integers(0, 6))
    return p, draw(raw_rows(p, width)), draw(st.integers(0, width)), width


def copy(rows):
    return [list(row) for row in rows]


def outcome(f, *args):
    try:
        return "returns", f(*args)
    except (Singular, DimensionMismatch) as e:
        return type(e).__name__, str(e)


def raw_values(rows, p):
    """Every entry a Fraction at p = 0, a residue in [0, p) at p > 0."""
    if p:
        return all(type(x) is int and 0 <= x < p for row in rows for x in row)
    return all(type(x) is Fraction for row in rows for x in row)


@CASES
@given(rref_cases(), st.booleans())
def test_rref_matches_fraction_loop(case, full):
    p, rows, ncols, width = case
    ncols = None if full else ncols
    work, want = copy(rows), copy(rows)
    pivots = linalg.raw_rref(work, p, ncols)
    assert pivots == ref_rref(want, p, ncols)
    rank = len(pivots)
    assert work[:rank] == want[:rank]
    assert raw_values(work[:rank], p)
    # rows past the rank are unspecified, but vanish where pivots are sought
    bound = width if ncols is None else ncols
    assert len(work) == len(rows)
    assert not any(x for row in work[rank:] for x in row[:bound])


@CASES
@given(rref_cases())
def test_kernel_matches_fraction_loop(case):
    p, rows, ncols, _ = case
    work = copy(rows)
    with mock.patch.object(linalg, "raw_rref", wraps=linalg.raw_rref) as rref:
        kernel = linalg.raw_kernel(work, ncols, p)
    assert kernel == ref_kernel(copy(rows), ncols, p)
    assert raw_values(kernel, p)
    # one elimination, on a copy: the rows handed in keep their values and types
    assert rref.call_count == 1
    assert [[(type(x), x) for x in row] for row in work] == [[(type(x), x) for x in row] for row in rows]


@st.composite
def square_or_not(draw):
    p = draw(FIELDS)
    n = draw(st.integers(0, 5))
    width = n if draw(st.integers(0, 4)) else draw(st.integers(0, 6))
    return p, draw(raw_rows(p, width, n if draw(st.booleans()) else None))


@CASES
@given(square_or_not())
def test_invert_matches_fraction_loop(case):
    p, rows = case
    got, want = outcome(linalg.raw_invert, copy(rows), p), outcome(ref_invert, copy(rows), p)
    assert got == want
    if got[0] == "returns":
        assert raw_values(got[1], p)


@st.composite
def complement_cases(draw):
    """outer rows (independent, as a rule), inner rows in their span (a few
    random ones among them), and the compared width (as a rule all of it)."""
    p = draw(FIELDS)
    width = draw(st.integers(0, 5))
    outer = draw(raw_rows(p, width, None if draw(st.integers(0, 3)) == 0 else draw(st.integers(0, width))))
    inner = []
    for _ in range(draw(st.integers(0, 3))):
        if outer and draw(st.integers(0, 3)):
            cs = [draw(st.sampled_from([0, 1, -2] + ([] if p else [Fraction(1, 3)]))) for _ in outer]
            row = [sum(c * row[j] for c, row in zip(cs, outer)) for j in range(width)]
            inner.append([x % p for x in row] if p else row)
        else:
            inner.append([draw(entries(p)) for _ in range(width)])
    return p, inner, outer, width if draw(st.integers(0, 3)) else draw(st.integers(0, width))


@CASES
@given(complement_cases())
def test_complement_matches_fraction_loop(case):
    p, inner, outer, ncols = case
    got = outcome(linalg.raw_complement, copy(inner), copy(outer), p, ncols)
    assert got == outcome(ref_complement, copy(inner), copy(outer), p, ncols)


@CASES
@given(FIELDS.flatmap(lambda p: st.tuples(st.just(p), st.integers(0, 5).flatmap(
    lambda n: raw_rows(p, n, n)))), st.data())
def test_det_matches_fraction_loop(case, data):
    p, rows = case
    # a zero row, or a row repeated, among them now and then
    if rows and data.draw(st.integers(0, 3)) == 0:
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
        rows[i] = [0] * len(rows) if i == j else list(rows[j])
    # the rows in any order, so that the pivot search swaps
    rows = data.draw(st.permutations(rows))
    work = copy(rows)
    got = linalg.raw_det(work, p)
    assert got == ref_det(rows, p)
    if p:
        assert type(got) is int and 0 <= got < p
    else:
        assert type(got) is Fraction
        # over QQ the rows are read, not reduced
        assert work == rows
    # a swap of two rows negates the determinant
    if len(rows) > 1:
        i, j = data.draw(st.sampled_from([(i, j) for i in range(len(rows)) for j in range(i)]))
        swapped = copy(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        neg = linalg.raw_det(swapped, p)
        assert neg == (-got % p if p else -got)


# -- raw_slices against the scaled_slices read it replaced ---------------------


def ref_scaled_slices(raw, p):
    L = 1
    if not p:
        raw = [[[[a.as_integer_ratio() for a in row] for row in M] for M in ms] for ms in raw]
        L = lcm(*{den for ms in raw for M in ms for row in M for _, den in row})
        raw = [[[[num * (L // den) for num, den in row] for row in M] for M in ms] for ms in raw]
    return [[(s, M) for s, M in enumerate(ms) if any(map(any, M))] for ms in raw], L


def ref_raw_slices(mats, p):
    raw = []
    for m in mats:
        try:
            raw.append([[[x.value for x in row] for row in m]])
        except AttributeError:
            coeffs = [[[a.value for a in x.coeffs] if isinstance(x, TPoly) else [x.value]
                       for x in row] for row in m]
            deg = max((len(x) for row in coeffs for x in row), default=0)
            raw.append([[[x[s] if s < len(x) else 0 for x in row] for row in coeffs]
                        for s in range(deg)])
    return ref_scaled_slices(raw, p)


WIDE = 2**64 + 13


@st.composite
def boxed_matrices(draw):
    field = draw(st.sampled_from((QQ, GF(2), GF(7), GF(2**61 - 1))))
    ints = st.one_of(st.integers(-3, 3), st.integers(-WIDE**2, WIDE**2))
    dens = st.one_of(st.integers(1, 6), st.integers(WIDE, WIDE**2))
    # over F_p ints, whose values are read mod p; over QQ Fractions too
    values = st.one_of(st.just(0), ints, *([] if field.characteristic else
                                           [st.builds(Fraction, ints, dens)]))
    scalars = values.map(field.scalar)
    mats = []
    for _ in range(draw(st.integers(0, 3))):
        n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        kind = draw(st.sampled_from(("scalar", "tpoly", "zero")))
        if kind == "zero":
            entry = st.just(field.zero)
        elif kind == "scalar":
            entry = scalars
        else:  # TPoly entries, with Scalars mixed in
            entry = st.one_of(scalars, st.lists(scalars, max_size=4).map(
                lambda cs: TPoly(field, cs)))
        mats.append(tuple(tuple(draw(entry) for _ in range(m)) for _ in range(n)))
    return field, mats


@settings(derandomize=True, max_examples=400, deadline=None)
@given(boxed_matrices())
def test_raw_slices_match_the_scaled_slices_read(case):
    field, mats = case
    p = field.characteristic
    assert linalg.raw_slices(mats, p) == ref_raw_slices(mats, p)
