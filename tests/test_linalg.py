import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, linalg
from gorlab.errors import DimensionMismatch, FieldMismatch, Singular
from gorlab.scalar import Scalar, TPoly

from helpers import complement_in, extend_to_basis


def M(field, rows):
    return linalg.mat([[field.scalar(x) for x in r] for r in rows])


def test_rref_canonical():
    red, piv = linalg.rref(M(QQ, [[2, 4], [1, 2]]), 2)
    assert red == M(QQ, [[1, 2]])
    assert piv == (0,)
    red2, _ = linalg.rref(M(QQ, [[1, 2], [3, 7]]), 2)
    assert red2 == linalg.identity(QQ, 2)


def test_kernel_basis():
    k = linalg.kernel_basis(QQ, M(QQ, [[1, 1, 0]]), 3)
    assert len(k) == 2
    for v in k:
        assert linalg.mat_vec(M(QQ, [[1, 1, 0]]), v) == (QQ.zero,)


def test_det_and_inverse():
    A = M(QQ, [[1, 2], [3, 4]])
    assert linalg.det(QQ, A) == QQ.scalar(-2)
    Ainv = linalg.invert(QQ, A)
    assert linalg.mat_mul(A, Ainv) == linalg.identity(QQ, 2)
    with pytest.raises(Singular):
        linalg.invert(QQ, M(QQ, [[1, 2], [2, 4]]))
    assert linalg.det(QQ, ()) == QQ.one


def test_solve_right():
    A = M(QQ, [[2, 0], [1, 1]])
    x = linalg.solve_right(QQ, A, [QQ.scalar(4), QQ.scalar(5)])
    assert x == (QQ.scalar(2), QQ.scalar(3))
    with pytest.raises(Singular):
        linalg.solve_right(QQ, M(QQ, [[1, 1], [1, 1]]), [QQ.one, QQ.zero])


def test_bareiss_matches_field_det():
    rng = random.Random(7)
    zero, one = TPoly(QQ), TPoly.const(QQ.one)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [[QQ.scalar(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        d1 = linalg.det(QQ, rows)
        poly_rows = [[TPoly.const(x) for x in r] for r in rows]
        d2 = linalg.det_in_domain(zero, one, poly_rows)
        assert d2 == TPoly.const(d1)


def test_bareiss_polynomial_matrix():
    t = TPoly.t(QQ)
    zero, one = TPoly(QQ), TPoly.const(QQ.one)
    m = [[t, one], [one, t]]
    d = linalg.det_in_domain(zero, one, m)
    assert d == t * t - 1


def test_complement_in():
    inner = M(QQ, [[1, 0, 0]])
    outer = M(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    comp = complement_in(QQ, inner, outer, 3)
    assert len(comp) == 2


def test_extend_to_basis():
    rows = M(GF(5), [[1, 2, 0]])
    extra = extend_to_basis(GF(5), rows, 3)
    full, _ = linalg.rref(list(rows) + list(extra), 3)
    assert len(full) == 3


def test_scalar_entries_required():
    with pytest.raises(FieldMismatch):
        linalg.rref([[QQ.one, 1]])
    with pytest.raises(FieldMismatch):
        linalg.det(GF(7), M(QQ, [[1]]))


# -- property test of the kernel against definitions -------------------------


@st.composite
def _matrices(draw):
    """A field and a small matrix over it: random, rank-deficient (a product
    through a thinner inner dimension) or with zero rows; square half the time."""
    field = draw(st.sampled_from([QQ, GF(2), GF(7), GF(101)]))
    if field.characteristic:
        entry = st.integers(0, field.characteristic - 1)
    else:
        entry = st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3)
    n = draw(st.integers(0, 4))
    m = n if n and draw(st.booleans()) else draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "rank_deficient", "zero_rows"]))

    def block(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    if kind == "rank_deficient" and min(n, m) > 0:
        k = draw(st.integers(0, min(n, m) - 1))
        left, right = block(n, k), block(k, m)
        raw = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    else:
        raw = block(n, m)
        if kind == "zero_rows":
            for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
                raw[i] = [0] * m
    return field, M(field, raw), m


def _cofactor_det(field, a):
    n = len(a)
    if n == 0:
        return field.one
    out = field.zero
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = a[0][j] * _cofactor_det(field, minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def _rank_by_minors(field, a, ncols):
    for k in range(min(len(a), ncols), 0, -1):
        for rows in combinations(range(len(a)), k):
            for cols in combinations(range(ncols), k):
                if _cofactor_det(field, [[a[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def _all_in(field, m):
    return all(isinstance(x, Scalar) and x.field == field for row in m for x in row)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices())
def test_kernel_matches_definitions(case):
    field, a, ncols = case
    z, o = field.zero, field.one

    # rref: reduced row echelon form with the input's row space
    red, pivots = linalg.rref(a, ncols)
    assert _all_in(field, red) and len(red) == len(pivots)
    assert list(pivots) == sorted(set(pivots))
    for r, (row, c) in enumerate(zip(red, pivots)):
        assert all(not x for x in row[:c]) and row[c] == o
        assert all(not red[k][c] for k in range(len(red)) if k != r)
    for row in a:
        combo = [z] * ncols
        for coeff, rrow in zip((row[c] for c in pivots), red):
            combo = [x + coeff * y for x, y in zip(combo, rrow)]
        assert tuple(combo) == row
    assert len(red) == _rank_by_minors(field, a, ncols)

    # kernel_basis: every vector is annihilated, and there are enough of them
    ker = linalg.kernel_basis(field, a, ncols)
    assert _all_in(field, ker) and len(ker) == ncols - len(red)
    for v in ker:
        assert all(not linalg.sum_dot(row, v) for row in a)

    # mat_mul against the triple loop, on a * a^T and a^T * a
    for x, y in ((a, linalg.transpose(a)), (linalg.transpose(a), a)):
        prod = linalg.mat_mul(x, y)
        assert _all_in(field, prod)
        naive = tuple(
            tuple(sum((x[i][t] * y[t][j] for t in range(len(y))), z) for j in range(len(y[0]) if y else 0))
            for i in range(len(x))
        )
        assert prod == naive

    if a and len(a) == ncols:
        d = linalg.det(field, a)
        assert isinstance(d, Scalar) and d.field == field
        assert d == _cofactor_det(field, [list(r) for r in a])
        if d:
            inv = linalg.invert(field, a)
            assert _all_in(field, inv)
            assert linalg.mat_mul(inv, a) == linalg.identity(field, ncols)
        else:
            with pytest.raises(Singular):
                linalg.invert(field, a)

    # one entry from another field spoils every routine
    if a:
        other = GF(3) if field is QQ else QQ
        stranger = other.scalar(Fraction(1, 2) if other is QQ else 2)
        mixed = list(a) + [(stranger,) + (z,) * (ncols - 1)]
        with pytest.raises(FieldMismatch):
            linalg.rref(mixed, ncols)
        with pytest.raises(FieldMismatch):
            linalg.kernel_basis(field, mixed, ncols)
        with pytest.raises(FieldMismatch):
            linalg.mat_mul(a, linalg.transpose(mixed))
        if len(a) == ncols:
            bad = [list(r) for r in a]
            bad[-1][-1] = stranger
            with pytest.raises(FieldMismatch):
                linalg.det(field, bad)


# -- raw_mul against the naive triple loop -----------------------------------


def _naive_mul(a, b, p, zero):
    """sum_k a[i][k] b[k][j], summed from ``zero`` over the nonzero terms only
    (the entry types raw_mul promises), reduced mod p when p > 0."""
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        sums = []
        for j in range(ncols):
            s = zero
            for k, x in enumerate(row):
                if x and b[k][j]:
                    s = s + x * b[k][j]
            sums.append(s % p if p else s)
        out.append(sums)
    return out


@st.composite
def _raw_factors(draw):
    """Two raw factors of random density with zero rows and columns in them,
    possibly empty: ints mod p, or at p = 0 ints (as L-scaled tables),
    Fractions, or one of each, summed from an int or a Fraction zero."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = rng.choice([0, 0, 0, 2, 3, 101])
    zero = rng.choice([0, Fraction(0)]) if not p else 0

    def entry_kind():
        if p:
            return lambda: rng.randrange(1, p)
        if rng.random() < 0.5:
            return lambda: rng.choice([-5, -2, -1, 1, 3, 4])
        return lambda: Fraction(rng.choice([-5, -1, 1, 2, 7]), rng.randint(1, 4))

    def factor(rows, cols):
        entry, density = entry_kind(), rng.random()
        zero_cols = {j for j in range(cols) if rng.random() < 0.2}
        return [[0] * cols if rng.random() < 0.2 else
                [entry() if j not in zero_cols and rng.random() < density else 0 for j in range(cols)]
                for _ in range(rows)]

    n, k, m = (rng.randint(0 if rng.random() < 0.1 else 1, 5) for _ in range(3))
    return factor(n, k), factor(k, m), p, zero


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_raw_factors())
def test_raw_mul_matches_naive_triple_loop(case):
    a, b, p, zero = case
    out = linalg.raw_mul(a, b, p, zero)
    want = _naive_mul(a, b, p, zero)
    assert out == want
    # at p = 0 an entry is an int only when zero and its terms are ints
    assert [[type(v) for v in row] for row in out] == [[type(v) for v in row] for row in want]
    # no row is shared with another or with a factor: raw_rref reduces in place
    assert len({id(row) for row in out + a + b}) == len(out) + len(a) + len(b)
    for i, row in enumerate(out):
        before = [list(r) for r in out]
        row[:] = ["x"] * len(row)
        assert all(out[j] == before[j] for j in range(len(out)) if j != i)


def test_raw_mul_empty_factors():
    assert linalg.raw_mul([], [[1, 2]], 7, 0) == []
    assert linalg.raw_mul([[], []], [], 7, 0) == [[], []]
    assert linalg.raw_mul([[0, 0]], [[1, 2], [3, 4]], 0, Fraction(0)) == [[0, 0]]


def test_invert_rejects_non_square():
    f = GF(101)
    with pytest.raises(DimensionMismatch, match="matrix is not square"):
        linalg.invert(f, M(f, [[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(DimensionMismatch, match="matrix is not square"):
        linalg.invert(f, M(f, [[1, 0], [0, 1], [0, 0]]))
    with pytest.raises(DimensionMismatch, match="matrix is not square"):
        linalg.raw_invert([[1, 0], [0]], 101)
    assert linalg.invert(f, ()) == ()


def test_raw_invert_is_an_inverse_on_raw_values():
    """raw_invert(M)·M = I on raw values, entries ints mod p or Fractions
    (what raw_rref pivots on), and Singular exactly when det M = 0."""
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(101)):
        p = field.characteristic
        zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
        for n in range(5):
            for _ in range(6):
                raw = linalg.unbox(M(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]))[1]
                if linalg.raw_det([list(r) for r in raw], p):
                    inv = linalg.raw_invert([list(r) for r in raw], p)
                    assert all(type(x) is type(one) for row in inv for x in row)
                    assert linalg.raw_mul(inv, raw, p, zero) == [
                        [one if i == j else zero for j in range(n)] for i in range(n)]
                else:
                    with pytest.raises(Singular):
                        linalg.raw_invert([list(r) for r in raw], p)


def greedy_complement(inner, outer, ambient):
    """complement_in's rank-by-rank scan, one rref per candidate row."""
    chosen = [list(r) for r in inner]
    out = []
    cur_rank = len(linalg.rref(chosen, ambient)[0]) if chosen else 0
    for row in outer:
        if cur_rank == len(outer):
            break
        cand = chosen + [list(row)]
        r = len(linalg.rref(cand, ambient)[0])
        if r > cur_rank:
            chosen, cur_rank = cand, r
            out.append(tuple(row))
    if cur_rank != len(outer):
        raise DimensionMismatch("inner space is not contained in outer space")
    return linalg.mat(out)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices(), st.data())
def test_complement_in_matches_greedy_scan(case, data):
    field, outer, ncols = case
    inner = [row for row in outer if data.draw(st.booleans())]
    if data.draw(st.booleans()) and outer:  # a row that may leave the outer space
        inner.append(tuple(field.scalar(data.draw(st.integers(0, 2))) for _ in range(ncols)))

    def run(fn):
        try:
            return fn(inner, outer, ncols)
        except DimensionMismatch as ex:
            return str(ex)

    assert run(lambda i, o, c: complement_in(field, i, o, c)) == run(greedy_complement)
