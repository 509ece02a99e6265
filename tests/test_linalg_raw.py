"""raw_rref and raw_det over QQ, on integers, against the Fraction loops
they replace.

At p = 0 both read each row once as integers over its common denominator:
raw_rref runs a fraction-free Gauss-Jordan elimination and builds Fractions
only for the pivot rows, raw_det runs Bareiss's elimination.  The references
below are the Gauss-Jordan and Gaussian loops on Fractions, and the kernel,
inverse and complement read off them.  On derandomized matrices over QQ --
int and Fraction entries mixed, zero and duplicate rows, rank-deficient and
empty matrices, ``ncols`` below the row width, numerators and denominators
above 2**64 -- both sides must return the same pivots and pivot rows (every
entry a Fraction), kernels, inverses (or the same Singular or
DimensionMismatch), complements (or the same DimensionMismatch) and
determinants (a Fraction).

``raw_slices`` reads boxed matrices over k and k[t] through the one QQ
reader, ``linalg._integer_rows``; ``ref_raw_slices`` is the read it replaced,
whose last step was ``scaled_slices`` (``as_integer_ratio`` on every
entry).  Both must give the same slice lists and L over QQ and F_p, on ints
of both signs, Fractions with denominators past 2**64, TPoly entries, and
zero and empty matrices.
"""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, linalg
from gorlab.errors import DimensionMismatch, Singular
from gorlab.scalar import TPoly

QQ_CASES = settings(derandomize=True, max_examples=300, deadline=None)


# -- the Fraction references -------------------------------------------------


def ref_rref(work, ncols=None):
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


def ref_kernel(rows, ncols):
    pivots = ref_rref(rows, ncols)
    basis = []
    for fcol in range(ncols):
        if fcol not in pivots:
            v = [Fraction(0)] * ncols
            v[fcol] = Fraction(1)
            for r, pcol in enumerate(pivots):
                v[pcol] = -rows[r][fcol]
            basis.append(v)
    ref_rref(basis, ncols)
    return basis


def ref_invert(work):
    n = len(work)
    if any(len(row) != n for row in work):
        raise DimensionMismatch("matrix is not square")
    for i, row in enumerate(work):
        row.extend(Fraction(int(j == i)) for j in range(n))
    if len(ref_rref(work, n)) < n:
        raise Singular("matrix is not invertible")
    return [row[n:] for row in work]


def ref_complement(inner, outer, ncols):
    k, m = len(inner), len(outer)
    cols = [list(col) for col in zip(*(row[:ncols] for row in [*inner, *outer]))]
    pivots = ref_rref(cols, k + m)
    if sum(c < k for c in pivots) > m or len(pivots) < m:
        raise DimensionMismatch("inner space is not contained in outer space")
    return [c - k for c in pivots[:m] if c >= k]


def ref_det(work):
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


# -- matrices over QQ ----------------------------------------------------------

HUGE = st.integers(2**64, 2**80)
ENTRIES = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(lambda s, n: s * n, st.sampled_from([1, -1]), HUGE),
    st.builds(Fraction, st.integers(-(2**80), 2**80), HUGE),
)


@st.composite
def qq_rows(draw, width, nrows=None):
    """Rows of ENTRIES, and then zero rows and multiples of earlier rows (a
    factor of 1 makes a duplicate) inserted among them."""
    n = draw(st.integers(0, 5)) if nrows is None else nrows
    rows = [[draw(ENTRIES) for _ in range(width)] for _ in range(n)]
    for _ in range(0 if nrows is not None else draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            f = draw(st.sampled_from([1, 1, -1, Fraction(2, 3), 2**70]))
            new = [x * f for x in rows[draw(st.integers(0, len(rows) - 1))]]
        else:
            new = [draw(st.sampled_from([0, Fraction(0)])) for _ in range(width)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@st.composite
def rref_cases(draw):
    width = draw(st.integers(0, 6))
    return draw(qq_rows(width)), draw(st.integers(0, width)), width


def copy(rows):
    return [list(row) for row in rows]


def outcome(f, *args):
    try:
        return "returns", f(*args)
    except (Singular, DimensionMismatch) as e:
        return type(e).__name__, str(e)


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@QQ_CASES
@given(rref_cases(), st.booleans())
def test_rref_matches_fraction_loop(case, full):
    rows, ncols, width = case
    ncols = None if full else ncols
    work, want = copy(rows), copy(rows)
    pivots = linalg.raw_rref(work, 0, ncols)
    assert pivots == ref_rref(want, ncols)
    rank = len(pivots)
    assert work[:rank] == want[:rank]
    assert all_fractions(work[:rank])
    # rows past the rank are unspecified, but vanish where pivots are sought
    bound = width if ncols is None else ncols
    assert len(work) == len(rows)
    assert not any(x for row in work[rank:] for x in row[:bound])


@QQ_CASES
@given(rref_cases())
def test_kernel_matches_fraction_loop(case):
    rows, ncols, _ = case
    kernel = linalg.raw_kernel(copy(rows), ncols, 0)
    assert kernel == ref_kernel(copy(rows), ncols)
    assert all_fractions(kernel)


@st.composite
def square_or_not(draw):
    n = draw(st.integers(0, 5))
    width = n if draw(st.integers(0, 4)) else draw(st.integers(0, 6))
    return draw(qq_rows(width, n if draw(st.booleans()) else None))


@QQ_CASES
@given(square_or_not())
def test_invert_matches_fraction_loop(rows):
    got, want = outcome(linalg.raw_invert, copy(rows), 0), outcome(ref_invert, copy(rows))
    assert got == want
    if got[0] == "returns":
        assert all_fractions(got[1])


@st.composite
def complement_cases(draw):
    """outer rows (independent, as a rule), inner rows in their span (a few
    random ones among them), and the compared width (as a rule all of it)."""
    width = draw(st.integers(0, 5))
    outer = draw(qq_rows(width, None if draw(st.integers(0, 3)) == 0 else draw(st.integers(0, width))))
    inner = []
    for _ in range(draw(st.integers(0, 3))):
        if outer and draw(st.integers(0, 3)):
            cs = [draw(st.sampled_from([0, 1, -2, Fraction(1, 3)])) for _ in outer]
            inner.append([sum(c * row[j] for c, row in zip(cs, outer)) for j in range(width)])
        else:
            inner.append([draw(ENTRIES) for _ in range(width)])
    return inner, outer, width if draw(st.integers(0, 3)) else draw(st.integers(0, width))


@QQ_CASES
@given(complement_cases())
def test_complement_matches_fraction_loop(case):
    inner, outer, ncols = case
    got = outcome(linalg.raw_complement, copy(inner), copy(outer), 0, ncols)
    assert got == outcome(ref_complement, copy(inner), copy(outer), ncols)


@QQ_CASES
@given(st.integers(0, 5).flatmap(lambda n: qq_rows(n, n)), st.data())
def test_det_matches_fraction_loop(rows, data):
    # a zero row, or a row repeated, among them now and then
    if rows and data.draw(st.integers(0, 3)) == 0:
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
        rows[i] = [0] * len(rows) if i == j else list(rows[j])
    work = copy(rows)
    got = linalg.raw_det(work, 0)
    assert got == ref_det(rows)
    assert type(got) is Fraction
    # over QQ the rows are read, not reduced
    assert work == rows



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
