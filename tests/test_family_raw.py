"""The k[t] family checks on raw coefficient lists against the boxed code
they replaced.

``family_det_is_unit``, ``family_socle_generator``, ``AlgebraFamily.gram``,
``AlgebraFamily.at``, the family branch of ``augmentation_check`` and
``linalg.det_in_domain`` run on the family's one raw read and on
``linalg.bareiss`` over raw coefficient lists.  The references below are the
boxed routines as they stood before: a ``TPoly`` Bareiss recurrence with
``TPoly.divexact``, the Gram matrix by ``mat_vec``, fibers by ``tpoly_eval``
per entry and validated by ``FiniteAlgebra``, and the augmentation loop on
``sum_dot``.  Inputs: the robber family, the homotopy families and Rees
families of corpus samples, over QQ, F_2, F_3 and F_7; perturbed by scaling
the orientation by t or by 0, by changing one entry of an augmentation, or by
changing one table entry (so that fibers may fail validation).  Both sides
must return equal results with equal value types, or raise the same
exception type with the same message.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, linalg
from gorlab.algebra import FiniteAlgebra
from gorlab.errors import BadUnit, Singular, ZeroInput
from gorlab.families import (
    AlgebraFamily,
    family_det_is_unit,
    family_socle_generator,
    homotopy_families,
    robber_family,
)
from gorlab.frobenius import OrientedAlgebra, augmentation_check, rees_family
from gorlab.scalar import TPoly, tpoly_eval

from corpus import build_corpus
from test_constructors import exact, outcome

FIELDS = (QQ, GF(2), GF(3), GF(7))


def ref_bareiss(zero, one, m, exact_div):
    n = len(m)
    work = [list(r) for r in m]
    sign = 1
    prev = one
    for c in range(n - 1):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return None
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, len(work[i])):
                work[i][j] = exact_div(work[c][c] * work[i][j] - work[i][c] * work[c][j], prev)
            work[i][c] = zero
        prev = work[c][c]
    if sign < 0:
        work[-1] = [-x for x in work[-1]]
    return work


def ref_det_in_domain(zero, one, m, exact_div):
    work = ref_bareiss(zero, one, m, exact_div) if m else [[one]]
    return work[-1][-1] if work else zero


def ref_gram(F):
    if F.orientation is None:
        raise BadUnit("family carries no orientation")
    return tuple(linalg.mat_vec(plane, F.orientation) for plane in F.c)


def ref_det_is_unit(F):
    zero, one = TPoly(F.field), TPoly.const(F.field.one)
    d = ref_det_in_domain(zero, one, ref_gram(F), lambda a, b: a.divexact(b))
    return bool(d) and d.is_constant()


def ref_socle_generator(F, aug):
    gram = ref_gram(F)
    e = F.augmentations[aug]
    zero, one = TPoly(F.field), TPoly.const(F.field.one)
    d = F.dim
    work = ref_bareiss(zero, one, [r + (b,) for r, b in zip(gram, e)], TPoly.divexact)
    det = (work[-1][-2] if d else one) if work is not None else zero
    if not det or not det.is_constant():
        raise Singular("family Gram determinant is not a unit")
    x = [zero] * d
    for i in reversed(range(d)):
        rhs = work[i][d] - sum((work[i][j] * x[j] for j in range(i + 1, d)), zero)
        x[i] = rhs.divexact(work[i][i])
    return tuple(x)


def ref_at(F, value, validate):
    value = F.field.scalar(value)
    c = [[[tpoly_eval(x, value) for x in row] for row in plane] for plane in F.c]
    unit = [tpoly_eval(x, value) for x in F.unit] if F.unit is not None else None
    return FiniteAlgebra(F.field, F.labels, c, unit, validate=validate)


def ref_augmentation_check(A, e):
    if A.unit is None or linalg.sum_dot(e, A.unit) != 1:
        return False
    for i in range(A.dim):
        for j in range(i, A.dim):
            if linalg.sum_dot(A.c[i][j], e) != e[i] * e[j]:
                return False
    return True


@lru_cache(maxsize=None)
def families(field):
    out = [robber_family(field)]
    for t in build_corpus(field, 6, seed=2):
        hf = homotopy_families(t)
        out += [hf.h_const, hf.h_mv]
        lam = t.oa.phi_of(t.algebra.unit)
        phi0 = [a - lam * b for a, b in zip(t.oa.phi, t.e)]
        out.append(rees_family(OrientedAlgebra(t.algebra, phi0)).family)
    return out


@st.composite
def tpolys(draw, field, max_deg=2):
    coeffs = draw(st.lists(st.integers(-4, 4), max_size=max_deg + 1))
    if field.characteristic == 0 and draw(st.booleans()):
        den = draw(st.sampled_from((2, 3, 10007)))
        return TPoly(field, [field.scalar(c) / field.scalar(den) for c in coeffs])
    return TPoly(field, coeffs)


@st.composite
def perturbed(draw, field):
    """A family of ``families(field)``, perhaps with its orientation scaled
    by t or 0, one augmentation entry changed or one table entry changed."""
    F = draw(st.sampled_from(families(field)))
    mode = draw(st.integers(0, 3))
    c, phi, augs = F.c, F.orientation, dict(F.augmentations)
    if mode == 1:
        s = draw(st.sampled_from((TPoly.t(field), TPoly(field))))
        phi = [s * x for x in phi]
    elif mode == 2 and augs:
        name = draw(st.sampled_from(sorted(augs)))
        k = draw(st.integers(0, F.dim - 1))
        e = list(augs[name])
        e[k] = e[k] + draw(tpolys(field))
        augs[name] = e
    elif mode == 3:
        i, j, k = (draw(st.integers(0, F.dim - 1)) for _ in range(3))
        c = [[list(row) for row in plane] for plane in c]
        c[i][j][k] = c[i][j][k] + draw(tpolys(field))
    if (c, phi, augs) == (F.c, F.orientation, F.augmentations):
        return F
    return AlgebraFamily(field, F.labels, c, F.unit, phi, augs, validate=False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_family_checks_match_boxed_routines(data):
    field = data.draw(st.sampled_from(FIELDS))
    F = data.draw(perturbed(field))
    zero, one = TPoly(field), TPoly.const(field.one)
    assert outcome(F.gram) == outcome(ref_gram, F)
    assert outcome(family_det_is_unit, F) == outcome(ref_det_is_unit, F)
    gram = ref_gram(F)
    assert outcome(linalg.det_in_domain, zero, one, gram) == outcome(
        ref_det_in_domain, zero, one, gram, lambda a, b: a.divexact(b)
    )
    for name in sorted(F.augmentations):
        assert outcome(family_socle_generator, F, name) == outcome(ref_socle_generator, F, name)
    first = tuple(one if i == 0 else zero for i in range(F.dim))
    for e in (*F.augmentations.values(), first):
        assert outcome(augmentation_check, F, e) == outcome(ref_augmentation_check, F, e)
    value = data.draw(st.one_of(st.sampled_from((0, 1)), st.integers(-5, 5)))
    validate = data.draw(st.booleans())

    def fiber(fn):
        A = fn(F, value, validate)
        return A.labels, A.c, A.unit

    assert outcome(fiber, lambda F, v, val: F.at(v, validate=val)) == outcome(fiber, ref_at)


@st.composite
def raw_polys(draw, p, max_deg=3, nonzero=False):
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=int(nonzero), max_size=max_deg + 1))
    if nonzero:
        coeffs[-1] = coeffs[-1] or 1
    coeffs = [c % p for c in coeffs] if p else coeffs
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs if coeffs or not nonzero else [1]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_exact_division_returns_the_quotient_or_raises(data):
    # a = b q + r with deg r < deg b: the quotient is q exactly when r = 0
    p = data.draw(st.sampled_from((0, 2, 3, 7)))
    b = data.draw(raw_polys(p, nonzero=True))
    q = data.draw(raw_polys(p))
    r = data.draw(raw_polys(p, max_deg=len(b) - 2)) if len(b) > 1 else []
    a = linalg.poly_sub(linalg.poly_mul(b, q, p), [-x for x in r], p)
    if r:
        assert outcome(linalg.poly_divexact, a, b, p) == (
            ZeroInput, "inexact division of coefficient lists"
        )
    else:
        assert linalg.poly_divexact(a, b, p) == q


def test_det_in_domain_keeps_its_call_forms():
    t = TPoly.t(QQ)
    zero, one = TPoly(QQ), TPoly.const(QQ.one)
    half = TPoly.const(QQ.scalar(1) / QQ.scalar(2))
    m = [[half * t, one], [one, t]]
    want = ref_det_in_domain(zero, one, m, lambda a, b: a.divexact(b))
    assert exact(linalg.det_in_domain(zero, one, m)) == exact(want)
    assert linalg.det_in_domain(zero, one, []) is one
