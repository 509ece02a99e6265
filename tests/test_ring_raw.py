"""The polynomial ring operators on the raw kernels against the boxed loops
they replaced.

The ``MultiPoly`` operators (+, -, *, ``scale``, ``term_mul``,
``substitute``), ``det_multipoly`` and ``lowest_degree_initial_ideal`` now
run on raw term dicts through ``poly._raw_add`` and ``poly._raw_mul``; the
``TPoly`` operators (+, -, *) run on raw coefficient lists through
``scalar.poly_mul`` and ``scalar.poly_sub``.  The references, here and in
``test_poly_raw``, are the loops over boxed scalars as they stood before.
Over QQ, F_2, F_7 and F_101,
on operands that cancel to zero, coefficient lists with interior zeros,
empty operands and operands from different rings, both sides must return the
same terms with the same value types (Fractions over QQ, ints over F_p), or
raise the same exception with the same message.  One difference is by
design: ``lowest_degree_initial_ideal`` checks the ring of every generator
up front, as ``groebner_basis`` does, so for mixed rings only the exception
type is compared.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, linalg
from gorlab.errors import BoundTooSmall, FieldMismatch, UnitIdeal, ZeroInput
from gorlab.poly import (
    MultiPoly,
    det_multipoly,
    grevlex_key,
    lowest_degree_initial_ideal,
    mono_degree,
    monomials_of_degree,
)
from gorlab.scalar import TPoly

from test_poly_raw import (
    coefficients,
    outcome,
    ref_add,
    ref_mul,
    ref_neg,
    ref_pow,
    ref_scale,
    ref_sub,
    ref_term_mul,
    typed,
)

FIELDS = (QQ, GF(2), GF(7), GF(101))
NAMES = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the boxed references


def ref_rsub(f, g):
    return ref_add(ref_neg(f), g)


def ref_substitute(f, i, value):
    value = f.field.scalar(value)
    out = MultiPoly.zero(f.field, f.variables)
    for m, c in f.terms.items():
        v = c * value ** m[i]
        m2 = m[:i] + (0,) + m[i + 1 :]
        out = ref_add(out, MultiPoly(f.field, f.variables, {m2: v}))
    return out


def ref_det_multipoly(matrix, field, variables):
    n = len(matrix)
    if n == 0:
        return MultiPoly.constant(field, variables, 1)
    memo: dict = {}

    def rec(cols):
        if cols in memo:
            return memo[cols]
        r = n - len(cols)
        if not cols:
            return MultiPoly.constant(field, variables, 1)
        acc = MultiPoly.zero(field, variables)
        sign = 1
        for pos, c in enumerate(cols):
            entry = matrix[r][c]
            if entry:
                sub = rec(cols[:pos] + cols[pos + 1 :])
                term = ref_mul(entry, sub)
                acc = ref_add(acc, term if sign > 0 else ref_neg(term))
            sign = -sign
        memo[cols] = acc
        return acc

    return rec(tuple(range(n)))


def ref_lowest_degree_initial_ideal(gens, degree_bound):
    gens = [g for g in gens if g]
    if not gens:
        raise ZeroInput("no generators")
    field, variables = gens[0].field, gens[0].variables
    nvars = len(variables)
    D = degree_bound
    monos_by_deg = [monomials_of_degree(nvars, s) for s in range(D + 1)]
    columns = []
    for s in range(D, -1, -1):
        columns.extend(monos_by_deg[s])
    col_index = {m: i for i, m in enumerate(columns)}
    deg_start = {}
    pos = 0
    for s in range(D, -1, -1):
        deg_start[s] = pos
        pos += len(monos_by_deg[s])
    rows = []
    for g in gens:
        dg = g.total_degree()
        if dg > D:
            continue
        for s in range(D - dg + 1):
            for m in monos_by_deg[s]:
                shifted = ref_term_mul(g, m, field.one)
                row = [field.zero] * len(columns)
                for mm, cc in shifted.terms.items():
                    row[col_index[mm]] = cc
                rows.append(tuple(row))
    red, pivots = linalg.rref(rows, len(columns))
    forms = []
    count_by_deg = {s: 0 for s in range(D + 1)}
    for r, p in enumerate(pivots):
        s = mono_degree(columns[p])
        start = deg_start[s]
        terms = {}
        for k, m in enumerate(monos_by_deg[s]):
            v = red[r][start + k]
            if v:
                terms[m] = v
        forms.append(MultiPoly(field, variables, terms))
        count_by_deg[s] += 1
    if count_by_deg[0]:
        raise UnitIdeal("1 is an initial form: the input ideal is the unit ideal")
    if len(monos_by_deg[D]) - count_by_deg[D] != 0:
        raise BoundTooSmall(
            f"graded quotient still has dimension in degree {D}; raise the bound"
        )
    forms.sort(key=lambda f: grevlex_key(f.leading_monomial()))
    return forms


def ref_tadd(f, g):
    o = f._coerce(g)
    a, b = f.coeffs, o.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return TPoly(f.field, out)


def ref_tneg(f):
    return TPoly(f.field, tuple(-c for c in f.coeffs))


def ref_tsub(f, g):
    return ref_tadd(f, ref_tneg(f._coerce(g)))


def ref_trsub(f, g):
    return ref_tadd(f._coerce(g), ref_tneg(f))


def ref_tmul(f, g):
    o = f._coerce(g)
    a, b = f.coeffs, o.coeffs
    if not a or not b:
        return TPoly(f.field)
    out = [f.field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return TPoly(f.field, out)


# ---------------------------------------------------------------------------
# comparison and strategies


def view(x):
    """Terms or coefficients with the types of their raw values."""
    if isinstance(x, MultiPoly):
        return typed(x)
    if isinstance(x, TPoly):
        return x.field, tuple((type(c.value), c.value) for c in x.coeffs)
    return [view(y) for y in x]


def same(fn, ref, *args):
    n, r = outcome(fn, *args), outcome(ref, *args)
    assert n[0] == r[0], (n, r)
    assert (view(n[1]) if n[0] == "ok" else n[1]) == (view(r[1]) if r[0] == "ok" else r[1])


def other_ring(field, names):
    """A ring that differs from k[names] in its field or in its variables."""
    return (QQ if field != QQ else GF(7), names) if len(names) == 3 else (field, NAMES)


@st.composite
def polys(draw, field, names, max_exp=3):
    monos = st.tuples(*[st.integers(0, max_exp) for _ in names])
    return MultiPoly(field, names, draw(st.dictionaries(monos, coefficients(field), max_size=4)))


@st.composite
def poly_pairs(draw):
    """Two polynomials of one ring, or now and then of two rings; the second
    one is often the first or its negative, so that sums and differences
    cancel."""
    field = draw(st.sampled_from(FIELDS))
    names = NAMES[: draw(st.integers(1, 3))]
    f = draw(polys(field, names))
    mode = draw(st.integers(0, 5))
    if mode == 0:
        g = f
    elif mode == 1:
        g = MultiPoly(field, names, {m: -c for m, c in f.terms.items()})
    elif mode == 2:
        g = draw(polys(*other_ring(field, names)))
    else:
        g = draw(polys(field, names))
    return f, g


@settings(derandomize=True, max_examples=150, deadline=None)
@given(poly_pairs(), st.data())
def test_multipoly_operators_match_boxed_loops(pair, data):
    f, g = pair
    field, names = f.field, f.variables
    same(MultiPoly.__add__, ref_add, f, g)
    same(MultiPoly.__sub__, ref_sub, f, g)
    same(MultiPoly.__mul__, ref_mul, f, g)
    same(MultiPoly.__neg__, ref_neg, f)
    # scalar operands, plain and as Scalars
    c = data.draw(st.sampled_from([0, 1, -1, 3]) | coefficients(field))
    for args in ((f, c), (f, field.scalar(c))):
        same(MultiPoly.__add__, ref_add, *args)
        same(MultiPoly.__rsub__, ref_rsub, *args)
        same(MultiPoly.__mul__, ref_mul, *args)
        same(MultiPoly.scale, ref_scale, *args)
    m = tuple(data.draw(st.integers(0, 2)) for _ in names)
    same(MultiPoly.term_mul, ref_term_mul, f, m, field.scalar(c))
    i = data.draw(st.integers(0, len(names) - 1))
    same(MultiPoly.substitute, ref_substitute, f, i, c)
    same(lambda a: a**3, lambda a: ref_pow(a, 3), f)


@st.composite
def matrices(draw):
    """Square matrices of polynomials, sparse linear forms as the witness
    search builds them or any polynomials, now and then with one nonzero
    entry from another ring."""
    field = draw(st.sampled_from(FIELDS))
    names = NAMES[: draw(st.integers(1, 3))]
    n = draw(st.integers(0, 4))
    linear = draw(st.booleans())
    entries = polys(field, names, max_exp=1 if linear else 2)
    matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n and draw(st.integers(0, 4)) == 0:
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        ring = other_ring(field, names)
        matrix[r][c] = MultiPoly.constant(*ring, 1) + MultiPoly.variable(*ring, 0)
    return matrix, field, names


@settings(derandomize=True, max_examples=100, deadline=None)
@given(matrices())
def test_det_multipoly_matches_boxed_loop(args):
    same(det_multipoly, ref_det_multipoly, *args)


@st.composite
def generator_sets(draw):
    """Generators in one or two variables and a degree bound; now and then
    the ideal of two points on a line, as the flat limits use; or, after a
    linear generator, a variable over another field."""
    field = draw(st.sampled_from(FIELDS))
    names = NAMES[: draw(st.integers(1, 2))]
    gens = draw(st.lists(polys(field, names, max_exp=2), max_size=5))
    x = MultiPoly.variable(field, names, 0)
    if draw(st.booleans()):
        gens.append(ref_mul(ref_sub(x, 1), ref_sub(x, 2)))
    mixed = draw(st.integers(0, 5)) == 0
    if mixed:
        gens = [ref_sub(x, 1), *gens, MultiPoly.variable(QQ if field != QQ else GF(7), names, 0)]
    return gens, draw(st.integers(1, 3)), mixed


@settings(derandomize=True, max_examples=120, deadline=None)
@given(generator_sets())
def test_lowest_degree_initial_ideal_matches_boxed_loop(args):
    gens, bound, mixed = args
    if mixed:
        new = outcome(lowest_degree_initial_ideal, gens, bound)
        ref = outcome(ref_lowest_degree_initial_ideal, gens, bound)
        assert new[0] == ref[0] == "raised" and new[1][0] is ref[1][0] is FieldMismatch
    else:
        same(lowest_degree_initial_ideal, ref_lowest_degree_initial_ideal, gens, bound)


def test_lowest_degree_initial_ideal_rejects_other_variables():
    # the boxed loop truncated the longer monomials here and went on
    gens = [MultiPoly.variable(QQ, ("x", "y"), 0) - 1, MultiPoly.variable(QQ, NAMES, 2)]
    assert outcome(lowest_degree_initial_ideal, gens, 2)[1][:2] == (
        FieldMismatch, "generators live in different rings")


@st.composite
def tpolys(draw, field):
    """Coefficient lists of up to six entries, often with zeros inside."""
    coeffs = draw(st.lists(st.just(0) | coefficients(field), max_size=6))
    return TPoly(field, coeffs)


@st.composite
def tpoly_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    f = draw(tpolys(field))
    mode = draw(st.integers(0, 5))
    if mode == 0:
        g = f
    elif mode == 1:
        g = TPoly(field, [-c for c in f.coeffs])
    elif mode == 2:
        g = draw(tpolys(QQ if field != QQ else GF(7)))
    elif mode == 3:
        g = draw(coefficients(field) | st.sampled_from([0, 1]).map(field.scalar))
    else:
        g = draw(tpolys(field))
    return f, g


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tpoly_pairs())
def test_tpoly_operators_match_boxed_loops(pair):
    f, g = pair
    same(TPoly.__add__, ref_tadd, f, g)
    same(TPoly.__sub__, ref_tsub, f, g)
    same(TPoly.__rsub__, ref_trsub, f, g)
    same(TPoly.__mul__, ref_tmul, f, g)
    same(TPoly.__neg__, ref_tneg, f)
    same(lambda a: a**3, lambda a: ref_tmul(ref_tmul(a, a), a), f)


def test_tpoly_product_over_qq_boxes_untouched_coefficients_as_fractions():
    # t * t: poly_mul never touches the coefficients of 1 and t
    t = TPoly.t(QQ)
    assert [type(c.value) for c in (t * t).coeffs] == [Fraction] * 3
    assert view(t * t) == view(ref_tmul(t, t))
