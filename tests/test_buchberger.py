"""Buchberger with the Gebauer–Möller update and the staircase walk, against
the routines they replaced.

``groebner_basis`` now reduces each generator on entry and prunes pairs by
Becker–Weispfenning's UPDATE; ``ref_groebner_basis`` (in ``test_poly_raw``)
is the routine as it stood before, with the chain-criterion scan.  The
reduced basis is unique, so both must give equal bases with the same value
types, over QQ, F_2 and F_101, on A_q presentations shaped as the
benchmark writes them, on complete intersections, and on ideals with
duplicate, scaled and summed generators and pure monomial ideals.

``standard_monomials`` now walks the order ideal degree by degree;
``ref_standard_monomials`` below is the walk over the box of pure powers it
replaced.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import test_poly_raw
from gorlab import GF, QQ, poly
from gorlab.cli import compile_presentation, parse_presentation
from gorlab.errors import InfiniteDimensional
from gorlab.poly import (
    MultiPoly,
    grevlex_key,
    groebner_basis,
    mono_degree,
    mono_divides,
    standard_monomials,
)
from test_poly_raw import coefficients, ref_groebner_basis, same, typed

FIELDS = (QQ, GF(2), GF(101))
CI_SHAPES = ((2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3))


def ref_standard_monomials(gb, cap=100_000):
    """The box walk: every monomial below the pure powers, tested against
    every leading monomial."""
    gb = [g for g in gb if g]
    if not gb:
        raise InfiniteDimensional("the zero ideal has infinite quotient")
    nvars = len(gb[0].variables)
    lms = [g.leading_monomial() for g in gb]
    if any(mono_degree(m) == 0 for m in lms):
        return []
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in lms if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            raise InfiniteDimensional(f"no pure power of variable {i} in the ideal")
        bounds.append(min(pure))
    out = []
    for m in product(*(range(b) for b in bounds)):
        if not any(mono_divides(lm, m) for lm in lms):
            out.append(m)
            if len(out) > cap:
                raise InfiniteDimensional(f"more than {cap} standard monomials")
    out.sort(key=grevlex_key)
    return out


# ---------------------------------------------------------------------------
# inputs


def _unit(rng):
    return rng.choice([u for u in range(-7, 8) if u])


def aq_relations(field, q, seed):
    """A_q's relations x_i x_j, x_a^2 - x_b^2 (a, b in a seeded order) and one
    cube, on renamed variables, shuffled and each scaled by a unit."""
    rng = random.Random(f"aq:{q}:{seed}")
    names = rng.sample([f"{c}{k}" for c in "stuvw" for k in range(10)], q)
    one = [tuple(int(k == i) for k in range(q)) for i in range(q)]
    rels = []
    for i in range(q):
        for j in range(i + 1, q):
            a, b = (i, j) if rng.random() < 0.5 else (j, i)
            rels.append({poly.mono_mul(one[i], one[j]): 1})
            rels.append({poly.mono_mul(one[a], one[a]): 1, poly.mono_mul(one[b], one[b]): -1})
    cube = one[rng.randrange(q)]
    rels.append({tuple(3 * e for e in cube): 1})
    rng.shuffle(rels)
    return [MultiPoly(field, names, {m: c * _unit(rng) for m, c in r.items()}) for r in rels]


def ci_relations(field, shape, seed):
    """x_i^{a_i} plus one to three terms of lower degree, each scaled."""
    rng = random.Random(f"ci:{shape}:{seed}")
    n = len(shape)
    names = rng.sample("abcdefgh", n)
    rels = []
    for i, a in enumerate(shape):
        terms = {tuple(a * (k == i) for k in range(n)): 1}
        for _ in range(rng.randint(1, 3)):
            expo = [0] * n
            for _ in range(rng.randrange(a)):
                expo[rng.randrange(n)] += 1
            terms[tuple(expo)] = rng.choice((-1, 1)) * rng.randint(1, 4)
        rels.append(MultiPoly(field, names, terms))
    rng.shuffle(rels)
    return [g.scale(field.scalar(_unit(rng))) for g in rels if g]


def bases(gb):
    return [typed(g) for g in gb]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("q", range(2, 9))
def test_aq_presentations_match_reference(field, q):
    for seed in range(2):
        gens = aq_relations(field, q, seed)
        same((groebner_basis, gens), (ref_groebner_basis, gens), bases)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("shape", CI_SHAPES, ids=str)
def test_complete_intersections_match_reference(field, shape):
    for seed in range(3):
        gens = ci_relations(field, shape, seed)
        same((groebner_basis, gens), (ref_groebner_basis, gens), bases)


@st.composite
def echoed_ideals(draw):
    """Generators in one to three variables, then duplicates, unit multiples
    and sums of them; or a pure monomial ideal."""
    field = draw(st.sampled_from(FIELDS))
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    monos = st.tuples(*[st.integers(0, 3) for _ in names])
    if draw(st.booleans()):
        ms = draw(st.lists(monos, min_size=1, max_size=5))
        return [MultiPoly(field, names, {m: 1}) for m in ms]
    terms = st.dictionaries(monos, coefficients(field), min_size=1, max_size=4)
    gens = [MultiPoly(field, names, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    units = st.integers(-5, 5).filter(lambda u: u % (field.characteristic or 7))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["duplicate", "scaled", "summed"]))
        g = draw(st.sampled_from(gens))
        if kind == "duplicate":
            gens.append(g)
        elif kind == "scaled":
            gens.append(g.scale(field.scalar(draw(units))))
        else:
            gens.append(g + draw(st.sampled_from(gens)).scale(field.scalar(draw(units))))
    return draw(st.permutations(gens))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(echoed_ideals())
def test_echoed_and_monomial_ideals_match_reference(gens):
    same((groebner_basis, gens), (ref_groebner_basis, gens), bases)


@st.composite
def wide_ideals(draw):
    """Up to six generators of up to four terms in one to three variables,
    exponents up to 3, and most often a pure power of each variable with
    lower-degree terms: enough pairs for every criterion to fire."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    names = ("x", "y", "z")[:n]
    monos = st.tuples(*[st.integers(0, 3) for _ in names])
    small = st.integers(-5, 5)
    terms = st.dictionaries(monos, small, min_size=1, max_size=4)
    gens = [MultiPoly(field, names, t) for t in draw(st.lists(terms, min_size=1, max_size=6))]
    if draw(st.integers(0, 3)):
        for i in range(n):
            power = tuple(draw(st.integers(1, 4)) * (k == i) for k in range(n))
            lower = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), small, max_size=2))
            lower = {m: c for m, c in lower.items() if sum(m) < sum(power)}
            gens.append(MultiPoly(field, names, {**lower, power: 1}))
    return draw(st.permutations(gens))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_ideals())
def test_wide_ideals_match_reference(gens):
    same((groebner_basis, gens), (ref_groebner_basis, gens), bases)


def test_criteria_counterexamples():
    """Ideals on which a wrong pair criterion loses a basis element: B_k
    without its equal-lcm exceptions (the first), and an equal-lcm group
    dropped whole though none of its pairs is coprime (the other two)."""
    x, y = poly.poly_ring(GF(3), "x", "y")
    cases = [[x**2 * y**3 + 2 * x**2 * y + 2, x**3 * y**3]]
    x, y, z = poly.poly_ring(QQ, "x", "y", "z")
    cases.append([5 * y**2 * z**2 - 3 * x**3 * z + 5 * y**3,
                  x**2 * y**3 * z - x**3 * y**3 + x * y * z**2 + 4 * x**3 * z])
    x, y, z = poly.poly_ring(GF(101), "x", "y", "z")
    cases.append([2 * x * y**3 * z**2 - 5 * y**3 * z**2,
                  -5 * x**2 * y**3 * z**2 + 5 * x**2 * y * z**3 - 3 * y**3 * z + x * z])
    for gens in cases:
        same((groebner_basis, gens), (ref_groebner_basis, gens), bases)


def test_aq_forms_fewer_s_polynomials_than_the_chain_criterion(monkeypatch):
    def counter(module, name):
        calls, original = [], getattr(module, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    gens = aq_relations(QQ, 8, 0)
    new = counter(poly, "_s_poly")
    old = counter(test_poly_raw, "ref_s_polynomial")
    assert groebner_basis(gens) == ref_groebner_basis(gens)
    # the chain criterion forms 190 S-polynomials here, the update 14
    assert len(old) == 190
    assert 0 < len(new) < len(old) // 10


def test_dependent_generators_make_no_pairs(monkeypatch):
    """x^2 - y^2 entered twice, once scaled: the copy reduces to zero on
    entry, so the basis of three relations forms what the two make."""
    x, y = poly.poly_ring(GF(101), "x", "y")
    calls = []
    original = poly._s_poly
    monkeypatch.setattr(poly, "_s_poly", lambda *a: calls.append(a) or original(*a))
    gb = groebner_basis([x * y, x**2 - y**2])
    two = len(calls)
    assert groebner_basis([x * y, x**2 - y**2, (y**2 - x**2).scale(GF(101).scalar(3))]) == gb
    assert len(calls) == 2 * two


def test_a20_presentation_compiles():
    """A_20's 381 relations, whose pairs the chain-criterion scan spent
    seconds on, compile to the algebra with Hilbert function (1, 20, 1)."""
    names = [f"y{i}" for i in range(20)]
    rels = [f"rel {a}*{b}\nrel {a}^2 - {b}^2\n" for i, a in enumerate(names) for b in names[i + 1 :]]
    text = "field Q\nvars " + " ".join(names) + "\n" + "".join(rels) + "rel y0^3\n"
    cd = compile_presentation(parse_presentation(text))
    assert cd.algebra.dim == 22
    assert cd.algebra.labels[-1] == "y0^2"


# ---------------------------------------------------------------------------
# the staircase walk


def staircase(field, nvars, power=10):
    """x_i^power and every x_i x_j: dim 1 + nvars (power - 1), in a box of
    power^nvars monomials."""
    names = [f"x{i}" for i in range(nvars)]
    one = [tuple(int(k == i) for k in range(nvars)) for i in range(nvars)]
    gens = [MultiPoly(field, names, {tuple(power * e for e in m): 1}) for m in one]
    gens += [MultiPoly(field, names, {poly.mono_mul(a, b): 1}) for i, a in enumerate(one) for b in one[i + 1 :]]
    return gens


def test_staircase_walk_follows_the_staircase():
    small = groebner_basis(staircase(QQ, 4))
    assert standard_monomials(small) == ref_standard_monomials(small)
    # 73 standard monomials in a box of 10^8
    monos = standard_monomials(groebner_basis(staircase(QQ, 8)))
    assert len(monos) == 1 + 8 * 9
    assert monos[0] == (0,) * 8 and monos[-1] == (0,) * 7 + (9,)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=8)
    ),
    st.integers(0, 40),
)
def test_walk_matches_box_on_monomial_ideals(monos, cap):
    names = ("x", "y", "z", "w")[: len(monos[0])]
    gb = [MultiPoly(GF(2), names, {m: 1}) for m in monos]
    same((standard_monomials, gb, cap), (ref_standard_monomials, gb, cap), lambda r: r)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(test_poly_raw.ideals(pure_powers=True), st.integers(0, 30))
def test_walk_matches_box_on_groebner_bases(ideal, cap):
    _, _, gens = ideal
    gb = groebner_basis(gens)
    same((standard_monomials, gb, cap), (ref_standard_monomials, gb, cap), lambda r: r)


def test_walk_cap_and_messages():
    gb = groebner_basis(staircase(GF(101), 3, power=4))
    count = len(ref_standard_monomials(gb))
    assert count == 1 + 3 * 3
    assert standard_monomials(gb, cap=count) == ref_standard_monomials(gb, cap=count)
    with pytest.raises(InfiniteDimensional, match=f"^more than {count - 1} standard monomials$"):
        standard_monomials(gb, cap=count - 1)
    x, y = poly.poly_ring(QQ, "x", "y")
    with pytest.raises(InfiniteDimensional, match="^no pure power of variable 1 in the ideal$"):
        standard_monomials(groebner_basis([x**2, x * y]))
    with pytest.raises(InfiniteDimensional, match="^the zero ideal has infinite quotient$"):
        standard_monomials([MultiPoly.zero(QQ, ("x", "y"))])
    assert standard_monomials(groebner_basis([x * y - 1, x])) == []
