import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, linalg
from gorlab.errors import BadParameter, BoundTooSmall, InfiniteDimensional, UnitIdeal
from gorlab.poly import (
    MultiPoly,
    det_multipoly,
    grevlex_key,
    groebner_basis,
    lowest_degree_initial_ideal,
    mono_divides,
    monomials_of_degree,
    normal_form,
    poly_ring,
    quotient_algebra,
    s_polynomial,
    standard_monomials,
)

from helpers import graded_hilbert


def test_grevlex_order_two_vars():
    # later-declared variables are larger: y1 < y2, y1^2 < y1*y2 < y2^2
    y1, y2 = (1, 0), (0, 1)
    assert grevlex_key(y1) < grevlex_key(y2)
    assert grevlex_key((2, 0)) < grevlex_key((1, 1)) < grevlex_key((0, 2))


def test_grevlex_degree_two_chain_three_vars():
    # ascending: x^2, xy, xz, y^2, yz, z^2 in variables (x, y, z)
    monos = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert sorted(monos, key=grevlex_key) == monos


def test_negative_power_is_a_domain_error():
    # the square-and-multiply loop never ended on a negative exponent
    (x,) = poly_ring(QQ, "x")
    with pytest.raises(BadParameter, match="negative exponent"):
        x ** -1
    assert x ** 0 == MultiPoly.constant(QQ, ("x",), 1)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_powers_match_repeated_products(field):
    # __pow__ runs poly._raw_pow's square-and-multiply; over QQ its terms
    # stay Fractions, the power 0 included
    x, y = poly_ring(field, "x", "y")
    for f in (x, 3 * x * y, x + 2 * y - 1, x * 0, (x - y) * (x + y) + 5):
        want = MultiPoly.constant(field, ("x", "y"), 1)
        for n in range(7):
            got = f ** n
            assert got == want and str(got) == str(want)
            assert {type(c.value) for c in got.terms.values()} <= {type(field.one.value)}
            want = want * f


def test_groebner_single_monomial():
    x, = poly_ring(QQ, "x")
    assert groebner_basis([x**2]) == [x**2]


def test_groebner_aq_relations():
    y1, y2 = poly_ring(QQ, "y1", "y2")
    gb = groebner_basis([y1 * y2, y1**2 - y2**2, y1**3])
    monos = standard_monomials(gb)
    assert monos == [(0, 0), (1, 0), (0, 1), (2, 0)]  # 1, y1, y2, y1^2


def test_groebner_inconsistent():
    x, = poly_ring(QQ, "x")
    gb = groebner_basis([x - 1, x - 2])
    assert gb == [MultiPoly.constant(QQ, ("x",), 1)]


def test_groebner_duplicate_generators():
    x, = poly_ring(QQ, "x")
    assert groebner_basis([x, x]) == [x]


def test_groebner_is_deterministic():
    y1, y2, y3 = poly_ring(QQ, "y1", "y2", "y3")
    gens = [y1 * y2 - y3**2, y1**2 - y2 * y3, y2**2 - y1 * y3]
    assert groebner_basis(gens) == groebner_basis(gens)


def test_normal_form_examples():
    x, = poly_ring(QQ, "x")
    assert not normal_form(x**3, [x**2])
    assert normal_form(x * x, [x**2 - x]) == x
    y1, y2 = poly_ring(QQ, "y1", "y2")
    gb = groebner_basis([y1 * y2, y1**2 - y2**2, y1**3])
    assert normal_form(y2**2, gb) == y1**2


def test_normal_form_multiplicativity():
    rng = random.Random(1)
    y1, y2 = poly_ring(QQ, "y1", "y2")
    gb = groebner_basis([y1 * y2, y1**2 - y2**2, y1**3])

    def rand_poly():
        out = MultiPoly.zero(QQ, ("y1", "y2"))
        for _ in range(4):
            m = (rng.randint(0, 2), rng.randint(0, 2))
            out = out + MultiPoly(QQ, ("y1", "y2"), {m: rng.randint(-3, 3)})
        return out

    for _ in range(25):
        f, g = rand_poly(), rand_poly()
        lhs = normal_form(f * g, gb)
        rhs = normal_form(normal_form(f, gb) * normal_form(g, gb), gb)
        assert lhs == rhs


def test_standard_monomials_examples():
    x, = poly_ring(QQ, "x")
    assert standard_monomials(groebner_basis([x**2])) == [(0,), (1,)]
    assert standard_monomials(groebner_basis([x - 1])) == [(0,)]
    with pytest.raises(InfiniteDimensional):
        x, y = poly_ring(QQ, "x", "y")
        standard_monomials(groebner_basis([x * y]))
    with pytest.raises(InfiniteDimensional):
        standard_monomials(groebner_basis([x**2]), cap=1)


def test_quotient_dual_numbers():
    x, = poly_ring(QQ, "x")
    A = quotient_algebra([x**2])
    assert A.dim == 2
    assert A.labels == ("1", "x")
    assert A.c[1][1] == (QQ.zero, QQ.zero)
    assert A.unit == (QQ.one, QQ.zero)


def test_quotient_unit_ideal():
    x, = poly_ring(QQ, "x")
    with pytest.raises(UnitIdeal):
        quotient_algebra([x - 1, x - 2])


def test_quotient_validates():
    # commutative, associative, unital: checked over all basis triples
    from gorlab.algebra import validate_structure

    y1, y2, y3 = poly_ring(QQ, "y1", "y2", "y3")
    A = quotient_algebra([y1**2 - y2, y2**2 - y3 * y1, y3**2])
    validate_structure(A.c, A.unit, QQ.zero)


def test_quotient_colliding_double_points_fiber_over_f5():
    x, = poly_ring(GF(5), "x")
    A = quotient_algebra([((x - 1) ** 2) * x**2])
    assert A.dim == 4
    # the square of the class of x^2: x^4 = 2x^3 - x^2 at t = 1
    assert A.c[2][2] == (GF(5).zero, GF(5).zero, GF(5).scalar(-1), GF(5).scalar(2))


def test_radical_point_count_matches_dimension():
    # radical ideal of n distinct rational points has n-dimensional quotient
    x, y = poly_ring(QQ, "x", "y")
    pts = [(1, 2), (3, 4), (5, 6)]
    gens = []
    # vanishing ideal via pairwise interpolation: (x - a) products and (y - b) corrections
    from gorlab.poly import monomials_of_degree

    monos = []
    for s in range(4):
        monos.extend(monomials_of_degree(2, s))
    rows = []
    for (a, b) in pts:
        row = []
        for m in monos:
            row.append(QQ.scalar(a) ** m[0] * QQ.scalar(b) ** m[1])
        rows.append(row)
    for vec in linalg.kernel_basis(QQ, rows, len(monos)):
        gens.append(MultiPoly(QQ, ("x", "y"), {m: c for m, c in zip(monos, vec) if c}))
    A = quotient_algebra(gens)
    assert A.dim == len(pts)


def test_initial_ideal_single_point():
    # the point {1} collapses to the origin: in(I) = <x>, quotient dim 1
    x, = poly_ring(QQ, "x")
    forms = lowest_degree_initial_ideal([x - 1], 2)
    assert graded_hilbert(forms, 1, 2) == [1, 0, 0]
    assert forms[0] == x


def test_initial_ideal_two_points_collide_to_dual_numbers():
    x, y = poly_ring(QQ, "x", "y")
    gens = [x - 1, y**2 - 1]  # the points (1, 1) and (1, -1)
    forms = lowest_degree_initial_ideal(gens, 2)
    assert graded_hilbert(forms, 2, 2) == [1, 1, 0]
    A = quotient_algebra(forms)
    assert A.dim == 2
    assert A.labels == ("1", "y")


def test_initial_ideal_unit_input():
    x, = poly_ring(QQ, "x")
    with pytest.raises(UnitIdeal):
        lowest_degree_initial_ideal([x - x + 1], 2)


def test_initial_ideal_bound_too_small():
    # five points on one line through the origin need degree 5
    x, y = poly_ring(QQ, "x", "y")
    prod = MultiPoly.constant(QQ, ("x", "y"), 1)
    for a in range(1, 6):
        prod = prod * (y - a)
    gens = [x - 0 * y, prod]  # x = 0 line; 5 points on it
    with pytest.raises(BoundTooSmall):
        lowest_degree_initial_ideal(gens, 3)


def _interpolated_ideal(field, points, bound=3):
    nvars = len(points[0])
    names = tuple(f"y{i+1}" for i in range(nvars))
    monos = []
    for s in range(bound + 1):
        monos.extend(monomials_of_degree(nvars, s))
    rows = []
    for p in points:
        row = []
        for m in monos:
            v = field.one
            for x, e in zip(p, m):
                v = v * field.scalar(x) ** e
            row.append(v)
        rows.append(row)
    return [
        MultiPoly(field, names, {m: c for m, c in zip(monos, vec) if c})
        for vec in linalg.kernel_basis(field, rows, len(monos))
    ], rows, monos


def test_initial_ideal_four_general_points_hilbert_121():
    # 4 points on 4 general lines through the origin of A^3, on y3 = 1
    points = [(2, 3, 1), (-1, 4, 1), (5, -2, 1), (3, 3, 1)]
    gens, rows, monos = _interpolated_ideal(QQ, points)
    forms = lowest_degree_initial_ideal(gens, 3)
    hil = graded_hilbert(forms, 3, 3)
    assert hil == [1, 2, 1, 0]
    # evaluation-matrix oracle: h(s) = rank(E_{<=s}) - rank(E_{<=s-1})
    def rank_upto(s):
        cols = [i for i, m in enumerate(monos) if sum(m) <= s]
        sub = [[row[i] for i in cols] for row in rows]
        return linalg.rank(sub, len(cols))

    oracle = [rank_upto(0)] + [rank_upto(s) - rank_upto(s - 1) for s in range(1, 4)]
    assert oracle == hil


def _buchberger_no_criteria(gens):
    """Reference Buchberger without pair-elimination criteria (oracle)."""
    from gorlab.poly import mono_divides, s_polynomial

    basis = [g.monic() for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        h = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if h:
            basis.append(h.monic())
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    lead = {}
    for g in basis:
        lead.setdefault(g.leading_monomial(), g)
    minimal = [
        g
        for m, g in lead.items()
        if not any(m != m2 and mono_divides(m2, m) for m2 in lead)
    ]
    out = []
    for i, g in enumerate(minimal):
        others = [h for k, h in enumerate(minimal) if k != i]
        out.append(normal_form(g, others).monic())
    out.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return out


def test_groebner_agrees_with_criteria_free_reference():
    rng = random.Random(17)
    names = ("x", "y", "z")

    def rand_poly():
        out = MultiPoly.zero(QQ, names)
        for _ in range(rng.randint(1, 3)):
            m = tuple(rng.randint(0, 2) for _ in range(3))
            out = out + MultiPoly(QQ, names, {m: rng.randint(-3, 3)})
        return out

    for _ in range(15):
        gens = [rand_poly() for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        assert groebner_basis(gens) == _buchberger_no_criteria(gens)


def test_groebner_agrees_with_reference_over_f7():
    rng = random.Random(23)
    f7 = GF(7)
    names = ("x", "y")

    def rand_poly():
        out = MultiPoly.zero(f7, names)
        for _ in range(rng.randint(1, 3)):
            m = (rng.randint(0, 3), rng.randint(0, 3))
            out = out + MultiPoly(f7, names, {m: rng.randint(0, 6)})
        return out

    for _ in range(15):
        gens = [g for g in (rand_poly() for _ in range(2)) if g]
        if not gens:
            continue
        assert groebner_basis(gens) == _buchberger_no_criteria(gens)


@st.composite
def _small_ideals(draw):
    """A few generators in at most three variables over QQ or GF(7)."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    monos = st.tuples(*[st.integers(0, 2) for _ in names])
    coeffs = st.integers(1, 3) | st.integers(-3, -1)
    terms = st.dictionaries(monos, coeffs, min_size=1, max_size=3)
    polys = terms.map(lambda t: MultiPoly(field, names, t))
    return field, draw(st.lists(polys, min_size=2, max_size=3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_small_ideals(), st.data())
def test_groebner_basis_is_reduced_and_canonical(ideal, data):
    field, gens = ideal
    gb = groebner_basis(gens)
    lms = [g.leading_monomial() for g in gb]
    for i, g in enumerate(gb):
        assert g.leading_coeff() == 1
        for m in g.terms:
            assert not any(k != i and mono_divides(lm, m) for k, lm in enumerate(lms))
        for h in gb[i + 1 :]:
            assert not normal_form(s_polynomial(g, h), gb)
    for g in gens:
        assert not normal_form(g, gb)
    units = st.integers(1, 6).map(field.scalar) | st.integers(-6, -1).map(field.scalar)
    shuffled = data.draw(st.permutations(gens))
    scaled = [g.scale(data.draw(units)) for g in shuffled]
    assert groebner_basis(scaled) == gb


def test_compile_presentation_runs_buchberger_once(monkeypatch):
    import gorlab.poly
    from gorlab.cli import compile_presentation, parse_presentation

    # Buchberger is poly._reduced_divisors; groebner_basis only boxes its result
    original = gorlab.poly._reduced_divisors
    calls = []

    def counting(gens):
        calls.append(gens)
        return original(gens)

    # patch every gorlab namespace that binds the function
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gorlab":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    doc = parse_presentation(
        "field Q\nvars y1 y2\nrel y1*y2\nrel y1^2 - y2^2\nrel y1^3\n"
        "orient y1^2 : 1\naug y1 = 0, y2 = 0\n"
    )
    cd = compile_presentation(doc)
    assert len(calls) == 1
    assert cd.algebra.labels == ("1", "y1", "y2", "y1^2")
    assert cd.phi == (QQ.zero, QQ.zero, QQ.zero, QQ.one)


def test_det_multipoly_matches_numeric():
    rng = random.Random(3)
    names = ("a", "b")
    for _ in range(10):
        n = rng.randint(1, 3)
        mat = [
            [
                MultiPoly(
                    QQ,
                    names,
                    {
                        (1, 0): rng.randint(-2, 2),
                        (0, 1): rng.randint(-2, 2),
                        (0, 0): rng.randint(-2, 2),
                    },
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        D = det_multipoly(mat, QQ, names)
        pt = [QQ.scalar(rng.randint(-3, 3)) for _ in range(2)]
        num = linalg.det(QQ, [[e.evaluate(pt) for e in row] for row in mat])
        assert D.evaluate(pt) == num
