"""The derived algebras built on reads, against the boxed builders they
replaced.

``frobenius.unitalize``, ``form_to_algebra`` and ``hyp_algebra`` assemble
their raw planes from the reads of their inputs and hand them to
``on_read``; ``tensors.aq_algebra`` takes A_q's closed form instead of
compiling its presentation by Buchberger.  The references below are the
builders they replaced, kept verbatim (``ref_form_to_algebra`` calls
``ref_unitalize``).  Both must give the same ``serialize()`` bytes, φ and e,
or the same exception type and message, on derandomized cases:

- the corpus over QQ, F_2, F_3 and F_7, decomposed and unitalized again at
  its own φ(1) and at another λ, and the hyperbolic algebra of each sample;
- random tables built with ``validate=False``, some commutative, some with
  a unit, wrapped without the checks of ``NonUnitalOriented``;
- forms of dimension 0-5, degenerate ones included;
- ``aq_algebra`` for q = 0..12 over QQ, F_2, F_3, F_7 and F_101.

A mutant that reads B at V's scale must fail the comparison, and with the
boxed constructor's read and Buchberger patched to raise, all four builders
still run.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest

from gorlab import GF, QQ, linalg, poly
from gorlab.algebra import FiniteAlgebra, _Table
from gorlab.errors import BadParameter, BadUnit, Degenerate
from gorlab.forms import BilinearForm, is_nondegenerate
from gorlab.frobenius import (
    Augmented,
    NonUnitalOriented,
    OrientedAlgebra,
    decompose_augmented,
    form_to_algebra,
    hyp_algebra,
    isotropy_check,
    unitalize,
)
from gorlab.poly import MultiPoly, quotient_algebra
from gorlab.tensors import aq_algebra

from corpus import build_corpus

FIELDS = [QQ, GF(2), GF(3), GF(7)]


def ref_unitalize(lam, nu: NonUnitalOriented) -> Augmented:
    """Rebuild the augmented oriented algebra k[x]/x^2 (+) V from (lam, V, B).

    Products follow (r+sx, v)(r'+s'x, v') =
    (rr' + (sr'+s'r+B(v,v')) x, r'v + rv' + vv'), with phi(r+sx, v) = r lam + s
    and e(r+sx, v) = r.
    """
    f = nu.algebra.field
    lam = f.scalar(lam)
    m = nu.dim
    d = m + 2
    z, o = f.zero, f.one
    c = [[[z] * d for _ in range(d)] for _ in range(d)]
    # unit products
    for k in range(d):
        c[0][k][k] = o
        c[k][0][k] = o
    # x*x = 0 and x*v = 0 already encoded by zeros
    for i in range(m):
        for j in range(m):
            row = [z] * d
            row[1] = nu.form.gram[i][j]
            prod = nu.algebra.c[i][j]
            for k in range(m):
                row[2 + k] = prod[k]
            c[2 + i][2 + j] = row
    labels = ("1", "x") + tuple(nu.algebra.labels)
    unit = tuple(o if k == 0 else z for k in range(d))
    alg = FiniteAlgebra(f, labels, c, unit, validate=True)
    phi = tuple([lam, o] + [z] * m)
    e = tuple([o] + [z] * (m + 1))
    oa = OrientedAlgebra(alg, phi)
    out = Augmented(oa, e)
    if not isotropy_check(oa, e):  # pragma: no cover
        raise AssertionError("unitalize produced a non-isotropic augmentation")
    return out


def ref_form_to_algebra(B: BilinearForm) -> Augmented:
    """The isotropically augmented algebra attached to a non-degenerate form:
    unitalize(0, (V, B)) with the zero multiplication on V."""
    if not is_nondegenerate(B):
        raise Degenerate("form is degenerate")
    f = B.field
    m = B.dim
    z = f.zero
    zero_mult = [[[z] * m for _ in range(m)] for _ in range(m)]
    alg = FiniteAlgebra(
        f, [f"v{i + 1}" for i in range(m)], zero_mult if m else [], None, validate=False
    )
    return ref_unitalize(f.zero, NonUnitalOriented(alg, B))


def ref_hyp_algebra(A: FiniteAlgebra) -> OrientedAlgebra:
    """The square-zero extension of A by its dual, oriented hyperbolically.

    Products: (a, f)(b, g) = (ab, a.g + b.f) with (a.f)(b) = f(ab); the
    orientation evaluates the functional part at the unit, and its Gram
    matrix in the basis (e_i; e_i^*) is exactly [[0, I], [I, 0]].
    """
    if not A.is_unital:
        raise BadUnit("hyp_algebra needs a unital input")
    f = A.field
    d = A.dim
    n = 2 * d
    z = f.zero
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                c[i][j][k] = A.c[i][j][k]
            # (e_i, 0) * (0, e_j^*) = (0, e_i . e_j^*), value at e_l is c[i][l][j]
            row = [z] * n
            for l in range(d):
                row[d + l] = A.c[i][l][j]
            c[i][d + j] = tuple(row)
            c[d + j][i] = tuple(row)
    unit = tuple(A.unit) + (z,) * d
    phi = (z,) * d + tuple(A.unit)
    labels = tuple(A.labels) + tuple(l + "*" for l in A.labels)
    alg = FiniteAlgebra(f, labels, c, unit, validate=True)
    return OrientedAlgebra(alg, phi)


def ref_aq_algebra(field, q: int) -> FiniteAlgebra:
    """The G-fat point algebra of degree q+2, compiled from its presentation
    k[y_1..y_q]/((y_i y_j)_{i<j}, (y_i^2 - y_j^2)_{i<j}, y_1^3)."""
    if q < 1:
        raise BadParameter("q must be at least 1")
    names = tuple(f"y{i + 1}" for i in range(q))
    gens = []
    for i in range(q):
        for j in range(i + 1, q):
            mi = tuple(1 if v in (i, j) else 0 for v in range(q))
            gens.append(MultiPoly(field, names, {mi: 1}))
            sq_i = tuple(2 if v == i else 0 for v in range(q))
            sq_j = tuple(2 if v == j else 0 for v in range(q))
            gens.append(MultiPoly(field, names, {sq_i: 1, sq_j: -1}))
    cube = tuple(3 if v == 0 else 0 for v in range(q))
    gens.append(MultiPoly(field, names, {cube: 1}))
    return quotient_algebra(gens)


def result(fn, *args):
    """The built object's JSON bytes (with φ and e where it has them), or
    the exception's type and message."""
    try:
        out = fn(*args)
    except Exception as ex:  # noqa: BLE001 - any difference is a failure
        return type(ex), str(ex)
    if isinstance(out, Augmented):
        out = {**out.oa.serialize(), "phi": list(map(str, out.oa.phi)),
               "e": list(map(str, out.e))}
    elif isinstance(out, OrientedAlgebra):
        out = {**out.serialize(), "phi": list(map(str, out.phi))}
    else:
        out = out.serialize()
    return json.dumps(out, sort_keys=True)


@lru_cache(maxsize=None)
def corpus(field):
    return build_corpus(field, 14, seed=1)


def entry(rng, field):
    if field.characteristic:
        return rng.randrange(field.characteristic)
    return rng.choice([0, 0, 1, -1, 2, Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))])


def random_form(rng, field, m):
    """A random symmetric Gram matrix, often degenerate over small fields."""
    g = [[field.scalar(entry(rng, field)) for _ in range(m)] for _ in range(m)]
    return BilinearForm(field, [[g[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)])


def random_table(rng, field, m, kind):
    """An m-dimensional table built with validate=False: "zero", "random",
    "symmetric" (commutative, rarely associative) or "unital" (e_0 acts as a
    unit, the rest random)."""
    c = [[[entry(rng, field) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    if kind == "zero":
        c = [[[0] * m for _ in range(m)] for _ in range(m)]
    if kind in ("symmetric", "unital"):
        c = [[c[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
    unit = None
    if kind == "unital" and m:
        for k in range(m):
            c[0][k] = c[k][0] = [int(l == k) for l in range(m)]
        unit = [1] + [0] * (m - 1)
    return FiniteAlgebra(field, [f"v{i + 1}" for i in range(m)], c, unit, validate=False)


def unchecked(V, B):
    """(V, B) as a NonUnitalOriented without its constructor's checks, as a
    caller that built V with validate=False may hold it."""
    nu = object.__new__(NonUnitalOriented)
    object.__setattr__(nu, "algebra", V)
    object.__setattr__(nu, "form", B)
    return nu


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_unitalize_matches_boxed_builder(field):
    rng = random.Random(f"unitalize {field}")
    for t in corpus(field):
        dec = decompose_augmented(t.oa, t.e)
        for lam in (dec.lam, entry(rng, field)):
            want = result(ref_unitalize, lam, dec.nonunital)
            assert isinstance(want, str)
            assert result(unitalize, lam, dec.nonunital) == want


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_unitalize_matches_boxed_builder_on_invalid_tables(field):
    rng = random.Random(f"invalid {field}")
    outcomes = set()
    for case in range(90):
        m = rng.randint(0, 4)
        V = random_table(rng, field, m, rng.choice(["zero", "random", "symmetric", "unital"]))
        B = random_form(rng, field, m)
        nu = unchecked(V, B)
        want = result(ref_unitalize, 1, nu)
        assert result(unitalize, 1, nu) == want, (case, want)
        outcomes.add(want[0].__name__ if isinstance(want, tuple) else "ok")
    assert {"ok", "NotCommutative", "NotAssociative", "Degenerate"} <= outcomes


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_form_to_algebra_matches_boxed_builder(field):
    rng = random.Random(f"forms {field}")
    kinds = set()
    for m in range(6):
        for _ in range(8):
            B = random_form(rng, field, m)
            want = result(ref_form_to_algebra, B)
            assert result(form_to_algebra, B) == want, (m, want)
            kinds.add(isinstance(want, str))
    assert kinds == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_hyp_algebra_matches_boxed_builder(field):
    rng = random.Random(f"hyp {field}")
    algebras = [t.algebra for t in corpus(field) if t.algebra.dim <= 6]
    algebras += [random_table(rng, field, m, kind) for m in range(4)
                 for kind in ("unital", "unital", "random")]
    outcomes = set()
    for A in algebras:
        want = result(ref_hyp_algebra, A)
        assert result(hyp_algebra, A) == want, (A, want)
        outcomes.add(want[0].__name__ if isinstance(want, tuple) else "ok")
    assert {"ok", "BadUnit", "NotAssociative"} <= outcomes


@pytest.mark.parametrize("field", FIELDS + [GF(101)], ids=str)
def test_aq_algebra_matches_the_compiled_presentation(field):
    for q in range(13):
        want = result(ref_aq_algebra, field, q)
        assert result(aq_algebra, field, q) == want, q


def test_a_mutant_reading_b_at_vs_scale_fails_the_comparison():
    """G's rows taken over V's scale instead of B's: the comparison above
    must see it on the QQ corpus, where the two scales differ."""
    raw_slices, differs = linalg.raw_slices, []
    for t in corpus(QQ):
        nu = decompose_augmented(t.oa, t.e).nonunital
        want = result(ref_unitalize, 1, nu)

        def mutant(mats, p):
            slices, scale = raw_slices(mats, p)
            return (slices, nu.algebra.raw[1]) if mats[0] is nu.form.gram else (slices, scale)

        with mock.patch.object(linalg, "raw_slices", mutant):
            differs.append(result(unitalize, 1, nu) != want)
    assert any(differs)


def _refuse(*args, **kwargs):
    raise AssertionError("a boxed table was read, or Buchberger ran")


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_builders_read_no_boxed_table_and_run_no_buchberger(field):
    t = corpus(field)[4]
    nu = decompose_augmented(t.oa, t.e).nonunital
    B = t.oa.form
    with mock.patch.object(_Table, "_read_of", _refuse), \
            mock.patch.object(poly, "_reduced_divisors", _refuse):
        assert unitalize(2, nu).algebra.dim == t.algebra.dim
        assert form_to_algebra(B).algebra.dim == B.dim + 2
        assert hyp_algebra(t.algebra).dim == 2 * t.algebra.dim
        assert aq_algebra(field, 9).dim == 11
    # the patches bite: the boxed constructor and the compiled presentation
    with mock.patch.object(_Table, "_read_of", _refuse), pytest.raises(AssertionError):
        FiniteAlgebra(field, ["1"], [[[1]]], [1])
    with mock.patch.object(poly, "_reduced_divisors", _refuse), pytest.raises(AssertionError):
        ref_aq_algebra(field, 2)
