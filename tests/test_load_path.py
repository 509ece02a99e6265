"""The .alg load path against a reference composed of the public API.

``compile_presentation`` runs on raw values from the relations to the
table: one Buchberger run (``poly._reduced_divisors``) hands its reduced
monic divisors to the staircase walk and to the normal forms, a product that
is itself a standard monomial is its own normal form, and the table is
written as integer planes over the lcm of its denominators.  ``_parse_poly``
reads integer literals as ints and raises one term to a power in closed
form.  The reference composes the public routines instead:
``groebner_basis`` → ``standard_monomials`` → ``normal_form`` of every
product → a boxed, validated ``FiniteAlgebra``, with the orient and aug
clauses resolved on boxed scalars.

On seeded presentations over QQ (with non-integer rational coefficients),
F_2, F_7 and F_101, among them unit ideals, infinite quotients and dependent
relations, both give the same table (with its value types), labels, unit,
phi and e, or the same error kind and message.  The relations parsed from
each text equal the polynomials it was written from, built with the
``MultiPoly`` operators.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from gorlab import GF, QQ
from gorlab.algebra import FiniteAlgebra
from gorlab.cli import compile_presentation, parse_presentation
from gorlab.errors import (
    GorlabError,
    InfiniteDimensional,
    UnitIdeal,
    UnknownMonomial,
    UnknownVariable,
)
from gorlab.poly import (
    MultiPoly,
    groebner_basis,
    mono_label,
    mono_mul,
    normal_form,
    poly_ring,
    standard_monomials,
)

FIELDS = [QQ, GF(2), GF(7), GF(101)]
NAMES = ("x", "y", "z")
KINDS = ("finite", "finite", "finite", "dependent", "unit", "infinite")


def ref_compile(doc):
    """compile_presentation from the public API, on boxed scalars."""
    field, names = doc.field, doc.variables
    gens = [g for g in doc.relations if g]
    if not gens:
        raise InfiniteDimensional("the zero ideal has infinite quotient")
    gb = groebner_basis(gens)
    monos = standard_monomials(gb)
    if not monos:
        raise UnitIdeal("the relations generate the unit ideal")
    index = {m: i for i, m in enumerate(monos)}

    def coords(f):
        row = [field.zero] * len(monos)
        for m, c in f.terms.items():
            row[index[m]] = c
        return row

    table = [[coords(normal_form(MultiPoly(field, names, {mono_mul(a, b): 1}), gb))
              for b in monos] for a in monos]
    unit = coords(MultiPoly.constant(field, names, 1))
    A = FiniteAlgebra(field, [mono_label(m, names) for m in monos], table, unit)
    phi = e = None
    if doc.orient is not None:
        phi = [field.zero] * len(monos)
        for m, c in doc.orient:
            if m not in index:
                raise UnknownMonomial(f"{mono_label(m, names)} is not a standard monomial")
            phi[index[m]] += c
    if doc.aug is not None:
        values = {v: field.zero for v in names}
        values.update(doc.aug)
        point = [values[v] for v in names]
        e = [MultiPoly(field, names, {m: 1}).evaluate(point) for m in monos]
        for i, row in enumerate(table):
            for j, entries in enumerate(row):
                if e[i] * e[j] != sum((c * x for c, x in zip(entries, e)), field.zero):
                    raise UnknownVariable("aug clause does not define an algebra map")
    return A, phi, e


def typed(values):
    return None if values is None else [(type(x.value), x.value) for x in values]


def view(compiled):
    A, phi, e = compiled
    table = [[typed(row) for row in plane] for plane in A.c]
    return A.field, A.labels, table, typed(A.unit), typed(phi), typed(e)


def astuple(cd):
    return cd.algebra, cd.phi, cd.e


def outcome(fn, doc):
    try:
        return "ok", view(fn(doc))
    except GorlabError as ex:
        return ex.kind, str(ex)


# ---------------------------------------------------------------------------
# seeded presentations, as text and as the polynomials it stands for


class Writer:
    """Relations as (source text, MultiPoly) pairs, the polynomial built
    with the MultiPoly operators along the same expression tree."""

    def __init__(self, rng, field, names):
        self.rng, self.field, self.names = rng, field, names
        self.vars = poly_ring(field, *names)

    def scalar(self, rational=True):
        rng, p = self.rng, self.field.characteristic
        if p:
            v = rng.randrange(1, p) if rng.random() < 0.8 else rng.randrange(p + 5)
        elif rational and rng.random() < 0.5:
            v = Fraction(rng.randint(1, 9), rng.randint(2, 6))
        else:
            v = rng.randint(1, 12)
        return str(v), MultiPoly.constant(self.field, self.names, v)

    def var(self):
        i = self.rng.randrange(len(self.names))
        return self.names[i], self.vars[i]

    def factor(self, depth):
        r = self.rng.random()
        if r < 0.3:
            return self.scalar()
        text, f = self.var()
        if r < 0.6:
            return text, f
        e = self.rng.randint(0, 3)
        if r < 0.8 or not depth:
            return f"{text}^{e}", f**e
        text, f = self.expr(depth - 1)
        return f"({text})^{e}", f**e

    def term(self, depth):
        text, f = self.factor(depth)
        for _ in range(self.rng.randint(0, 2)):
            t, g = self.factor(depth)
            text, f = f"{text}*{t}", f * g
        if self.rng.random() < 0.2:
            text, f = f"-{text}", -f
        return text, f

    def expr(self, depth=1):
        text, f = self.term(depth)
        for _ in range(self.rng.randint(0, 3)):
            t, g = self.term(depth)
            if self.rng.random() < 0.5:
                text, f = f"{text} + {t}", f + g
            else:
                text, f = f"{text} - {t}", f - g
        return text, f

    def pure_power(self, i, origin):
        """x_i^e plus lower terms; with ``origin``, none of them constant."""
        e = self.rng.randint(1, 3)
        text, f = f"{self.names[i]}^{e}", self.vars[i] ** e
        for _ in range(self.rng.randint(0, 2)):
            d = self.rng.randint(1 if origin else 0, e - 1) if e > 1 else None
            if d is None:
                break
            c, g = self.scalar()
            j = self.rng.randrange(len(self.names))
            text, f = f"{text} + {c}*{self.names[j]}^{d}", f + g * self.vars[j] ** d
        return text, f


def presentation(field, seed):
    """(.alg text, the relations it stands for, its kind)."""
    rng = random.Random(f"load path {field} {seed}")
    kind = KINDS[seed % len(KINDS)]
    names = NAMES[: rng.randint(1, 3)]
    w = Writer(rng, field, names)
    origin = rng.random() < 0.5  # no constant terms, so aug at 0 is an algebra map
    rels = []
    skip = rng.randrange(len(names)) if kind == "infinite" else None
    for i in range(len(names)):
        if i != skip:
            rels.append(w.pure_power(i, origin))
    for _ in range(rng.randint(0, 2)):
        text, f = w.expr()
        if origin:
            c = f.terms.get((0,) * len(names))
            if c:
                text, f = f"{text} - {c.value}", f - c
        rels.append((text, f))
    if kind == "dependent" and rels:
        # m*r1 + c*r2: in the ideal already
        (t1, f1), (t2, f2) = rng.choice(rels), rng.choice(rels)
        tm, fm = w.var()
        tc, fc = w.scalar()
        rels.append((f"{tm}*({t1}) + {tc}*({t2})", fm * f1 + fc * f2))
        rels.append((f"({t1})", f1))
    if kind == "unit":
        a, b = rng.sample(range(field.characteristic or 20), 2)
        x, fx = w.var()
        rels += [(f"{x} - {a}", fx - a), (f"{x} - {b}", fx - b)]
    rng.shuffle(rels)
    lines = [f"field {'Q' if field == QQ else f'F {field.characteristic}'}",
             "vars " + " ".join(names)]
    lines += [f"rel {text}" for text, _ in rels]
    if rng.random() < 0.7:
        monos = ["1", *names] * 3 + [*(f"{v}^2" for v in names), f"{names[0]}*{names[-1]}"]
        pairs = [f"{m} : {w.scalar()[0]}" for m in rng.sample(monos, rng.randint(1, 3))]
        lines.append("orient " + ", ".join(pairs))
    if rng.random() < 0.7:
        at_origin = rng.random() < 0.7
        pairs = [f"{v} = {0 if at_origin else w.scalar()[0]}" for v in names]
        lines.append("aug " + ", ".join(pairs))
    return "\n".join(lines) + "\n", [f for _, f in rels], kind


def typed_poly(f):
    return f.field, f.variables, {m: (type(c.value), c.value) for m, c in f.terms.items()}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_compile_presentation_matches_the_public_api(field):
    seen = Counter()
    for seed in range(60):
        text, polys, kind = presentation(field, seed)
        doc = parse_presentation(text)
        assert [typed_poly(r) for r in doc.relations] == [typed_poly(f) for f in polys], text
        got = outcome(lambda d: astuple(compile_presentation(d)), doc)
        assert got == outcome(ref_compile, doc), text
        seen[kind, got[0]] += 1
        # the table alone, also where a clause is at fault
        bare = replace(doc, orient=None, aug=None)
        got = outcome(lambda d: astuple(compile_presentation(d)), bare)
        assert got == outcome(ref_compile, bare), text
    # every kind of input, and every outcome, turns up over every field
    outcomes = {o for _, o in seen}
    assert {"ok", "UnitIdeal", "InfiniteDimensional", "UnknownMonomial",
            "UnknownVariable"} <= outcomes, seen
    assert seen["dependent", "ok"] and seen["finite", "ok"], seen


# tables whose entries have denominators no one of which the others all
# divide: the planes' scale is their lcm, not their largest
MIXED = [
    "field Q\nvars x y z\nrel x^2 - 2/5*y*z\nrel y^2 - 3/7*x*z\nrel z^2 - 1/2*x*y\nrel x*y*z\n",
    "field Q\nvars x\nrel 6*x^4 - 3/2*x^3 + 2/3*x^2\n",
]


@pytest.mark.parametrize("text", MIXED)
def test_a_table_over_the_lcm_of_its_denominators(text):
    doc = parse_presentation(text)
    got = outcome(lambda d: astuple(compile_presentation(d)), doc)
    assert got == outcome(ref_compile, doc)
    A = compile_presentation(doc).algebra
    dens = {x.value.denominator for plane in A.c for row in plane for x in row}
    assert A.raw[1] == lcm(*dens) > max(dens)
