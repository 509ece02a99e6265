"""The raw-coefficient Gröbner layer and polynomial parser against the boxed
routines they replaced.

``groebner_basis``, ``normal_form``, ``s_polynomial`` and
``_quotient_with_index`` now reduce dicts of raw values (ints mod p, or
Fractions over QQ) by monic divisors (lm, tail), and ``cli._parse_poly``
builds raw term dicts.  The references below are the routines as they stood
before, on boxed ``MultiPoly`` arithmetic.  Since the ``MultiPoly``
operators run on the raw kernels too, the references use copies of their old
loops over boxed scalars (``ref_add``, ``ref_mul`` and the rest).  Over QQ,
F_2, F_7 and F_101, on rational coefficients, unit ideals, infinite quotients, and expressions with
parentheses, powers, unary minus and denominators that vanish mod p, both
must give equal results with the same value types, or raise the same
exception with the same message.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ
from gorlab.algebra import FiniteAlgebra
from gorlab.cli import _parse_poly, _Parser, _tokenize
from gorlab.errors import (
    FieldMismatch,
    InfiniteDimensional,
    ParseError,
    UnitIdeal,
    UnknownVariable,
)
from gorlab.poly import (
    MultiPoly,
    _quotient_with_index,
    grevlex_key,
    groebner_basis,
    mono_div,
    mono_divides,
    mono_label,
    mono_lcm,
    mono_mul,
    normal_form,
    s_polynomial,
    standard_monomials,
)

FIELDS = (QQ, GF(2), GF(7), GF(101))
NAMES = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the boxed references: the MultiPoly operators as loops over boxed scalars,
# and the routines below on them


def ref_add(f, g):
    o = f._coerce(g)
    terms = dict(f.terms)
    for m, c in o.terms.items():
        s = terms.get(m, f.field.zero) + c
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)
    return MultiPoly(f.field, f.variables, terms)


def ref_neg(f):
    return MultiPoly(f.field, f.variables, {m: -c for m, c in f.terms.items()})


def ref_sub(f, g):
    return ref_add(f, ref_neg(f._coerce(g)))


def ref_mul(f, g):
    o = f._coerce(g)
    terms: dict = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in o.terms.items():
            m = mono_mul(m1, m2)
            s = terms.get(m, f.field.zero) + c1 * c2
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
    return MultiPoly(f.field, f.variables, terms)


def ref_pow(f, n):
    out = MultiPoly.constant(f.field, f.variables, 1)
    while n:
        if n & 1:
            out = ref_mul(out, f)
        f = ref_mul(f, f)
        n >>= 1
    return out


def ref_scale(f, c):
    c = f.field.scalar(c)
    return MultiPoly(f.field, f.variables, {m: c * v for m, v in f.terms.items()})


def ref_term_mul(f, m, c):
    return MultiPoly(f.field, f.variables, {mono_mul(m, m2): c * c2 for m2, c2 in f.terms.items()})


def ref_monic(f):
    return ref_scale(f, f.leading_coeff().inverse())


def ref_divisor(g):
    return g.leading_monomial(), g.leading_coeff(), g


def ref_reduce(f, divisors):
    rem = MultiPoly.zero(f.field, f.variables)
    work = f
    while work:
        m = work.leading_monomial()
        c = work.terms[m]
        for lm, lc, g in divisors:
            if mono_divides(lm, m):
                work = ref_sub(work, ref_term_mul(g, mono_div(m, lm), c / lc))
                break
        else:
            rem = ref_add(rem, MultiPoly(f.field, f.variables, {m: c}))
            work = ref_sub(work, MultiPoly(f.field, f.variables, {m: c}))
    return rem


def ref_normal_form(f, gb):
    return ref_reduce(f, [ref_divisor(g) for g in gb if g])


def ref_s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = mono_lcm(lf, lg)
    return ref_sub(
        ref_term_mul(f, mono_div(l, lf), f.leading_coeff().inverse()),
        ref_term_mul(g, mono_div(l, lg), g.leading_coeff().inverse()),
    )


def ref_groebner_basis(gens):
    gens = [g for g in gens if g]
    if not gens:
        return []
    field, variables = gens[0].field, gens[0].variables
    for g in gens[1:]:
        if g.field != field or g.variables != variables:
            raise FieldMismatch("generators live in different rings")
    basis = [ref_monic(g) for g in gens]
    divisors = [ref_divisor(g) for g in basis]
    lms = [lm for lm, _, _ in divisors]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    queue = [(grevlex_key(mono_lcm(lms[i], lms[j])), i, j) for i, j in pairs]
    heapify(queue)
    while queue:
        _, i, j = heappop(queue)
        pairs.discard((i, j))
        l = mono_lcm(lms[i], lms[j])
        if l == mono_mul(lms[i], lms[j]):
            continue
        skip = False
        for k, lm_k in enumerate(lms):
            if k in (i, j) or not mono_divides(lm_k, l):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                skip = True
                break
        if skip:
            continue
        h = ref_reduce(ref_s_polynomial(basis[i], basis[j]), divisors)
        if h:
            h = ref_monic(h)
            basis.append(h)
            divisors.append(ref_divisor(h))
            lms.append(divisors[-1][0])
            new = len(basis) - 1
            for k in range(new):
                pairs.add((k, new))
                heappush(queue, (grevlex_key(mono_lcm(lms[k], lms[new])), k, new))
    lead = {}
    for div in divisors:
        lead.setdefault(div[0], div)
    minimal = [
        div
        for m, div in lead.items()
        if not any(m != m2 and mono_divides(m2, m) for m2 in lead)
    ]
    final = []
    for i, (_, _, g) in enumerate(minimal):
        others = [div for k, div in enumerate(minimal) if k != i]
        final.append(ref_monic(ref_reduce(g, others)))
    final.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return final


def ref_quotient_with_index(gens, cap=100_000):
    gens = [g for g in gens if g]
    if not gens:
        raise InfiniteDimensional("the zero ideal has infinite quotient")
    field, variables = gens[0].field, gens[0].variables
    gb = ref_groebner_basis(gens)
    monos = standard_monomials(gb, cap)
    if not monos:
        raise UnitIdeal("the relations generate the unit ideal")
    index = {m: i for i, m in enumerate(monos)}
    d = len(monos)
    z = field.zero
    divisors = [ref_divisor(g) for g in gb if g]
    c = [[[z] * d for _ in range(d)] for _ in range(d)]
    for i, mi in enumerate(monos):
        for j in range(i, d):
            prod = MultiPoly(field, variables, {mono_mul(mi, monos[j]): 1})
            nf = ref_reduce(prod, divisors)
            row = [z] * d
            for m, coeff in nf.terms.items():
                row[index[m]] = coeff
            c[i][j] = row
            c[j][i] = row
    unit = [z] * d
    unit[index[(0,) * len(variables)]] = field.one
    labels = [mono_label(m, variables) for m in monos]
    return FiniteAlgebra(field, labels, c, unit, validate=False), index


def ref_parse_poly(p, field, variables):
    var_index = {v: i for i, v in enumerate(variables)}

    def parse_atom():
        t = p.peek()
        if t.kind == "OP" and t.text == "(":
            p.next()
            e = parse_expr()
            p.expect("OP", ")")
            return e
        if t.kind == "OP" and t.text == "-":
            p.next()
            return ref_neg(parse_atom_pow())
        if t.kind == "NUMBER":
            p.next()
            return MultiPoly.constant(field, variables, field.scalar(Fraction(t.text)))
        if t.kind == "IDENT":
            if t.text not in var_index:
                raise UnknownVariable(
                    f"unknown variable {t.text!r} at line {t.line}, column {t.col}"
                )
            p.next()
            return MultiPoly.variable(field, variables, var_index[t.text])
        raise ParseError(
            f"expected a term, found {t.text or t.kind!r}", t.line, t.col,
            expected="term",
        )

    def parse_atom_pow():
        base = parse_atom()
        t = p.peek()
        if t.kind == "OP" and t.text == "^":
            p.next()
            ex = p.expect("NUMBER")
            if "/" in ex.text:
                raise ParseError("exponent must be an integer", ex.line, ex.col)
            base = ref_pow(base, int(ex.text))
        nxt = p.peek()
        if nxt.kind in ("IDENT", "NUMBER") or (nxt.kind == "OP" and nxt.text == "("):
            raise ParseError(
                "juxtaposition is not allowed; use '*'", nxt.line, nxt.col,
                expected="operator",
            )
        return base

    def parse_term():
        out = parse_atom_pow()
        while p.peek().kind == "OP" and p.peek().text == "*":
            p.next()
            out = ref_mul(out, parse_atom_pow())
        return out

    def parse_expr():
        out = parse_term()
        while p.peek().kind == "OP" and p.peek().text in "+-":
            op = p.next().text
            rhs = parse_term()
            out = ref_add(out, rhs) if op == "+" else ref_sub(out, rhs)
        return out

    return parse_expr()


# ---------------------------------------------------------------------------
# comparison


def typed(f):
    """A polynomial's ring and terms, each value with its raw type."""
    return f.field, f.variables, {m: (type(c.value), c.value) for m, c in f.terms.items()}


def typed_algebra(result):
    A, index = result
    table = [[[(type(x.value), x.value) for x in row] for row in plane] for plane in A.c]
    unit = [(type(x.value), x.value) for x in A.unit]
    return A.field, A.labels, table, unit, list(index.items())


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as ex:  # noqa: BLE001 -- the exception is the outcome
        where = (ex.line, ex.col, ex.expected) if isinstance(ex, ParseError) else None
        return "raised", (type(ex), str(ex), where)


def same(new, ref, view):
    n, r = outcome(*new), outcome(*ref)
    assert n[0] == r[0], (n, r)
    if n[0] == "ok":
        assert view(n[1]) == view(r[1])
    else:
        assert n[1] == r[1]


# ---------------------------------------------------------------------------
# strategies


def coefficients(field):
    ints = st.integers(-9, 9)
    if field.characteristic:
        return ints
    return ints | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def ideals(draw, pure_powers=False):
    """Generators in one to three variables, with rational coefficients over
    QQ; with pure_powers, usually a pure power of every variable too, so the
    quotient is finite more often than not."""
    field = draw(st.sampled_from(FIELDS))
    names = NAMES[: draw(st.integers(1, 3))]
    monos = st.tuples(*[st.integers(0, 3) for _ in names])
    terms = st.dictionaries(monos, coefficients(field), max_size=4)
    gens = [MultiPoly(field, names, t) for t in draw(st.lists(terms, min_size=1, max_size=4))]
    if pure_powers and draw(st.integers(0, 4)):
        for i in range(len(names)):
            e = draw(st.integers(1, 3))
            lower = draw(st.dictionaries(monos, coefficients(field), max_size=2))
            lower = {m: c for m, c in lower.items() if sum(m) < e}
            power = tuple(e if k == i else 0 for k in range(len(names)))
            gens.append(MultiPoly(field, names, {power: 1, **lower}))
    order = draw(st.permutations(range(len(gens))))
    return field, names, [gens[k] for k in order]


@settings(derandomize=True, max_examples=70, deadline=None)
@given(ideals(), st.data())
def test_groebner_normal_form_and_s_polynomial_match_boxed(ideal, data):
    field, names, gens = ideal
    monos = st.tuples(*[st.integers(0, 4) for _ in names])
    f = MultiPoly(field, names, data.draw(st.dictionaries(monos, coefficients(field), max_size=5)))
    same((groebner_basis, gens), (ref_groebner_basis, gens), lambda gb: [typed(g) for g in gb])
    # the generators as divisors: not a basis, not monic, maybe zero
    same((normal_form, f, gens), (ref_normal_form, f, gens), typed)
    gb = ref_groebner_basis(gens)
    same((normal_form, f, gb), (ref_normal_form, f, gb), typed)
    nonzero = [g for g in gens if g]
    if nonzero:
        g, h = nonzero[0], nonzero[-1]
        same((s_polynomial, g, h), (ref_s_polynomial, g, h), typed)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ideals(pure_powers=True))
def test_quotient_with_index_matches_boxed(ideal):
    _, _, gens = ideal
    same(
        (_quotient_with_index, gens, 64),
        (ref_quotient_with_index, gens, 64),
        typed_algebra,
    )


@st.composite
def expressions(draw):
    """Polynomial source text over x, y, z: literals (rational ones with
    denominators that vanish mod 2, 7 or 101), parentheses, unary minus,
    powers and + - *; now and then an unknown variable, a rational exponent
    or a juxtaposition, which are errors."""
    literal = st.integers(0, 12).map(str) | st.builds(
        "{}/{}".format, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 7, 101])
    )
    var = st.sampled_from(NAMES * 4 + ("w",))

    def extend(inner):
        return st.one_of(
            inner.map("({})".format),
            inner.map("-{}".format),
            st.builds(
                "{}^{}".format,
                inner.map("({})".format) | var,
                st.sampled_from(["0", "1", "2", "3", "1/2"]),
            ),
            st.builds(
                "{}{}{}".format,
                inner,
                st.sampled_from([" + ", " - ", "*", " + ", " - ", "*", " "]),
                inner,
            ),
        )

    text = draw(st.recursive(literal | var, extend, max_leaves=8))
    return text if text.count("^") <= 3 else text.replace("^", "*")


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), expressions())
def test_parse_poly_matches_boxed(field, text):
    def parse(fn):
        p = _Parser(_tokenize(text))
        return fn(p, field, NAMES), p.pos

    same(
        (parse, _parse_poly),
        (parse, ref_parse_poly),
        lambda r: (typed(r[0]), r[1]),
    )
