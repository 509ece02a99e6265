"""The constructions that build from valid inputs do not re-validate.

A table is validated where it enters the library: the boxed constructors,
``unitalize``, ``hyp_algebra`` and ``AlgebraFamily.at(validate=True)``.
``connected_sum``, ``homotopy_families``, ``decompose_augmented``,
``frobenius._graded_family`` (``rees_family``, ``degeneration_to_cw``,
``scale_multiplication_family``) and ``specialize`` build with validation
off, and keep no post-condition check.  Here:

- with ``algebra.validate_structure`` patched to raise, each of those runs
  on corpus inputs over QQ and F_7, while the entry points still call it;
- on a derandomized corpus over QQ, F_2, F_3 and F_7, every property the
  library no longer checks is asserted: ``validate_structure`` on each
  output and on its fibers at t = 0, t = 1 and a random c, a unit Gram
  determinant and descending augmentations for the homotopies, isotropy of
  the sums and the unitalizations, and a non-degenerate b_phi on each sum;
- ``algebra._table_on_rows`` runs no row-space check, so its contract is
  asserted on what ``decompose_augmented``, ``connected_sum`` and
  ``homotopy_families`` hand it, over QQ and F_7: every product of the rows
  lies in the span its coordinate map reads (V after the projection along
  span(1, x), where the map gives the ``RowSolver`` coordinates; the fiber
  product of the two augmentations for the sums and homotopies);
- ``degeneration_to_cw`` reads its (1, x, V) algebra off the input in the
  adapted basis, and its family has the ``serialize()`` bytes of the one
  built through ``unitalize``; it takes only the split of
  ``decompose_augmented`` (no table for V, no ``NonUnitalOriented``), and
  ``witt_invariants`` still rejects a degenerate V-form.

The oriented wrappers follow the same rule: ``connected_sum``,
``decompose_augmented``, ``unitalize``, ``form_to_algebra`` and
``hyp_algebra`` fill ``OrientedAlgebra``, ``Augmented`` and
``NonUnitalOriented`` through ``frobenius._trusted``, and ``surgery``,
``robber_family`` and the connected-sum core keep no post-condition check.
Here:

- the determinants, augmentation checks and wrapper checks each
  construction runs are counted on corpus inputs over QQ and F_7;
- on the derandomized corpus over QQ, F_2, F_3 and F_7, what those checks
  decided is asserted instead: the public ``NonUnitalOriented`` accepts V,
  the augmentations of ``unitalize`` and ``form_to_algebra`` are algebra
  maps, the forms of ``hyp_algebra`` and ``surgery`` are non-degenerate, and
  the robber family has a unit Gram determinant and two augmentations;
- ``rees_family`` and ``surgery_inverse`` take no determinant and build
  no ``Subspace``: they hand surgery's core the unit itself, and get the
  public ``surgery``'s form and section; the public ``surgery`` still
  rejects a degenerate form;
- the robber family's socle generator for "const" is computed once per
  field and kept next to the family;
- ``decompose_augmented`` checks its one outside input, the augmentation:
  isotropic functionals that are not algebra maps raise ``BadUnit``, on
  A_2 and on a sweep over the corpus, where the split once returned a
  non-associative V or a misleading ``Singular``.
"""

import json
import random
from fractions import Fraction
from collections import Counter
from contextlib import ExitStack
from functools import lru_cache
from unittest import mock

import pytest

from gorlab import (
    GF,
    QQ,
    algebra,
    families,
    frobenius,
    linalg,
    poly_ring,
    quotient_algebra,
    tensors,
)
from gorlab.algebra import AlgebraFamily, FiniteAlgebra, Subspace, validate_structure
from gorlab.families import (
    family_det_is_unit,
    family_socle_generator,
    homotopy_families,
    robber_family,
    scale_multiplication_family,
    specialize,
)
from gorlab.errors import BadUnit, Degenerate
from gorlab.forms import BilinearForm, is_nondegenerate, surgery, witt_invariants
from gorlab.frobenius import (
    NonUnitalOriented,
    OrientedAlgebra,
    _graded_family,
    augmentation_check,
    connected_sum,
    decompose_augmented,
    form_to_algebra,
    hyp_algebra,
    isotropy_check,
    rees_family,
    socle_generator,
    surgery_inverse,
    unitalize,
)
from gorlab.tensors import degeneration_to_cw

from gorlab.scalar import TPoly, as_tpoly

from corpus import build_corpus
from row_solver import RowSolver

FIELDS = [QQ, GF(2), GF(3), GF(7)]


@lru_cache(maxsize=None)
def corpus(field):
    return build_corpus(field, 14, seed=2)


def isotropic(t):
    """t's algebra oriented by phi - phi(1) e, so that phi(1) = 0."""
    lam = t.oa.phi_of(t.algebra.unit)
    return OrientedAlgebra(t.algebra, [a - lam * b for a, b in zip(t.oa.phi, t.e)])


def trusted_builds(field):
    """(name, thunk) for every builder that no longer validates."""
    ts = corpus(field)
    t, t2 = ts[3], ts[4]
    dec = decompose_augmented(t.oa, t.e)
    hf = homotopy_families(t)
    return [
        ("connected_sum", lambda: connected_sum(t, t2)),
        ("homotopy_families", lambda: homotopy_families(t)),
        ("decompose_augmented", lambda: decompose_augmented(t.oa, t.e)),
        ("rees_family", lambda: rees_family(isotropic(t))),
        ("degeneration_to_cw", lambda: degeneration_to_cw(t)),
        ("scale_multiplication_family", lambda: scale_multiplication_family(dec.nonunital)),
        ("specialize", lambda: specialize(hf.h_const, 3)),
    ]


def refuse(*args, **kwargs):
    raise AssertionError("validate_structure was called")


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_trusted_builders_never_validate(field):
    robber_family(field)  # validated once per field, then kept
    builds = trusted_builds(field)
    with mock.patch.object(algebra, "validate_structure", refuse):
        for name, build in builds:
            assert build() is not None, name


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_entry_points_still_validate(field):
    t = corpus(field)[3]
    dec = decompose_augmented(t.oa, t.e)
    h = homotopy_families(t).h_const
    (*planes, _), scale = h.raw
    A = t.algebra
    entries = [
        ("FiniteAlgebra", lambda: FiniteAlgebra(field, A.labels, A.c, A.unit)),
        ("AlgebraFamily", lambda: AlgebraFamily(field, h.labels, h.c, h.unit)),
        ("on_read", lambda: AlgebraFamily.on_read(planes, scale, field, h.labels, h.unit)),
        ("unitalize", lambda: unitalize(dec.lam, dec.nonunital)),
        ("hyp_algebra", lambda: hyp_algebra(A)),
        ("at", lambda: h.at(2)),
    ]
    for name, build in entries:
        with mock.patch.object(algebra, "validate_structure", refuse):
            with pytest.raises(AssertionError, match="validate_structure was called"):
                build()
        assert build() is not None, name


def assert_valid(A):
    """validate_structure on the boxed table, independently of the read."""
    validate_structure(A.c, A.unit, A._entry(0, A.field))


def assert_valid_family(F, rng):
    assert_valid(F)
    f = F.field
    for c in (0, 1, rng.randrange(f.characteristic) if f.characteristic else rng.randint(-9, 9)):
        fiber = specialize(F, c).algebra
        assert_valid(fiber)
        assert fiber == F.at(c, validate=True)


def assert_oriented_sum(s):
    assert_valid(s.algebra)
    assert is_nondegenerate(s.oa.form)
    assert augmentation_check(s.algebra, s.e)
    assert isotropy_check(s.oa, s.e)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_trusted_outputs_keep_what_is_no_longer_checked(field):
    rng = random.Random(f"trusted {field}")
    ts = corpus(field)
    for a, b in zip(ts, ts[1:]):
        assert_oriented_sum(connected_sum(a, b))
    for t in ts:
        dec = decompose_augmented(t.oa, t.e)
        assert_valid(dec.nonunital.algebra)
        u = unitalize(dec.lam, dec.nonunital)
        assert isotropy_check(u.oa, u.e)
        hf = homotopy_families(t)
        for h in (hf.h_const, hf.h_mv):
            assert family_det_is_unit(h)
            for name in ("const", "mv"):
                assert augmentation_check(h, h.augmentations[name])
            assert_valid_family(h, rng)
        assert_valid_family(rees_family(isotropic(t)).family, rng)
        assert_valid_family(degeneration_to_cw(t).family, rng)
        assert_valid_family(scale_multiplication_family(dec.nonunital), rng)


def handed_to_table_on_rows(build):
    """(tables, R, C) of each _table_on_rows call build() makes, R and C
    boxed: R constant, C with TPoly entries."""
    calls, real = [], frobenius._table_on_rows

    def record(field, tables, R, L_R, C, L_C):
        def box(x, L):
            return field.scalar(Fraction(x, L))

        rows = [tuple(box(x, L_R) for x in row) for row in R]
        D, w = sum(t.dim for t in tables), len(R)
        Cb = [[sum((TPoly.const(box(X[i][j], L_C)).shift(s) for s, X in C), TPoly(field))
               for j in range(w)] for i in range(D)]
        calls.append((tables, rows, Cb))
        return real(field, tables, R, L_R, C, L_C)

    with mock.patch.object(frobenius, "_table_on_rows", record):
        build()
    return calls


def block_products(tables, rows):
    """r_a r_b in tables[0] (+) tables[1] (+) ..., for every pair of rows, as
    TPoly vectors."""
    field = tables[0].field
    out = []
    for u in rows:
        for v in rows:
            w, o = [], 0
            for t in tables:
                part, c = [TPoly(field)] * t.dim, t.c
                for i in range(t.dim):
                    for j in range(t.dim):
                        if u[o + i] and v[o + j]:
                            f = u[o + i] * v[o + j]
                            part = [x + f * as_tpoly(y, field) for x, y in zip(part, c[i][j])]
                w, o = w + part, o + t.dim
            out.append(w)
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_products_of_the_rows_lie_in_their_span(field):
    ts = corpus(field)
    for t in ts:
        [(tables, V, C)] = handed_to_table_on_rows(lambda: decompose_augmented(t.oa, t.e))
        if not V:
            continue
        x, B = socle_generator(t.oa, t.e), t.oa.form
        lam, solver = t.oa.phi_of(t.algebra.unit), RowSolver(field, V)
        for w in block_products(tables, V):
            w = [y.constant_value() for y in w]
            bx, b1 = B.apply(w, x), B.apply(w, t.algebra.unit)
            proj = [a - bx * u - (b1 - lam * bx) * z for a, u, z in zip(w, t.algebra.unit, x)]
            # in V, and C reads the coordinates of the projection
            assert linalg.vec_mat(w, C) == tuple(map(TPoly.const, solver.coords(proj)))
    for t1, t2, e2, build in [
            *((a, b, b.e, lambda a=a, b=b: connected_sum(a, b)) for a, b in zip(ts, ts[1:])),
            *((a, None, [u.constant_value() for u in robber_family(field).augmentations["const"]],
               lambda a=a: homotopy_families(a)) for a in ts)]:
        [(tables, R, _)] = handed_to_table_on_rows(build)
        # the fiber product {(a, b) : e1(a) = e2(b)}
        fiber = linalg.kernel_basis(field, [tuple(t1.e) + tuple(-y for y in e2)], len(R[0]))
        solver = RowSolver(field, fiber)
        for r in R:
            solver.coords(r)
        for w in block_products(tables, R):
            solver.coords(w)  # raises Singular off the fiber product


def ref_degeneration_family(T):
    """degeneration_to_cw's family, built from unitalize(lam, V)."""
    dec = decompose_augmented(T.oa, T.e)
    U = unitalize(dec.lam, dec.nonunital)
    return _graded_family(U.algebra, [0, 2] + [1] * dec.nonunital.dim, U.algebra.labels,
                          orientation=U.oa.phi, augmentations={"aug": U.e})


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_degeneration_family_matches_the_unitalize_path(field):
    for t in corpus(field):
        got = degeneration_to_cw(t).family.serialize()
        want = ref_degeneration_family(t).serialize()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_degeneration_reads_only_the_split(field):
    """degeneration_to_cw builds no table for V and no NonUnitalOriented,
    and its V-form, invariants and adapted basis are decompose_augmented's."""
    for t in corpus(field)[:6]:
        dec = decompose_augmented(t.oa, t.e)
        with mock.patch.object(frobenius, "_table_on_rows", refuse), \
                mock.patch.object(frobenius.NonUnitalOriented, "__post_init__", refuse):
            rep = degeneration_to_cw(t)
        assert rep.v_form == dec.nonunital.form
        assert rep.adapted_basis == dec.adapted_basis
        assert rep.invariants == witt_invariants(dec.nonunital.form)


def test_degeneration_rejects_a_degenerate_v_form():
    """witt_invariants' determinant is the one check of the V-form left."""
    t = corpus(QQ)[3]
    lam, form, labels, adapted, raw = frobenius._split(t.oa, t.e)
    flat = BilinearForm(QQ, [[QQ.zero] * form.dim for _ in range(form.dim)])
    with mock.patch.object(tensors, "_split", lambda oa, e: (lam, flat, labels, adapted, raw)):
        with pytest.raises(Degenerate, match="^form is degenerate$"):
            degeneration_to_cw(t)


# ---------------------------------------------------------------------------
# the oriented wrappers: checked where they enter, built unchecked


COUNTED = {
    "raw_det": (linalg, "raw_det"),
    "augmentation_check": (frobenius, "augmentation_check"),
    "NonUnitalOriented": (NonUnitalOriented, "__post_init__"),
    "Augmented": (frobenius.Augmented, "__post_init__"),
}


def checks_run(build):
    """The COUNTED checks build() runs, by label, with how often."""
    counts = Counter()
    with ExitStack() as stack:
        for label, (owner, name) in COUNTED.items():
            def counting(*args, _real=getattr(owner, name), _label=label, **kwargs):
                counts[_label] += 1
                return _real(*args, **kwargs)

            stack.enter_context(mock.patch.object(owner, name, counting))
        build()
    return dict(counts)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_checks_per_construction(field):
    """Only the entry checks are left: unitalize's orientation determinant,
    form_to_algebra's own determinant (and unitalize's) and
    decompose_augmented's augmentation check.  rees_family takes no
    determinant: its b_phi is non-degenerate by OrientedAlgebra's check."""
    t, t2 = corpus(field)[4:6]
    assert (t.algebra.dim, t2.algebra.dim) == (6, 7)
    dec = decompose_augmented(t.oa, t.e)
    oa = isotropic(t)
    builds = {
        "connected_sum": (lambda: connected_sum(t, t2), {}),
        "decompose_augmented": (lambda: decompose_augmented(t.oa, t.e),
                                {"augmentation_check": 1}),
        "unitalize": (lambda: unitalize(dec.lam, dec.nonunital), {"raw_det": 1}),
        "form_to_algebra": (lambda: form_to_algebra(dec.nonunital.form), {"raw_det": 2}),
        "hyp_algebra": (lambda: hyp_algebra(t.algebra), {}),
        "rees_family": (lambda: rees_family(oa), {}),
        "surgery_inverse": (lambda: surgery_inverse(oa), {}),
    }
    for name, (build, want) in builds.items():
        assert checks_run(build) == want, name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_oriented_builders_keep_what_is_no_longer_checked(field):
    ts = corpus(field)
    for t in ts:
        dec = decompose_augmented(t.oa, t.e)
        nu = dec.nonunital
        assert NonUnitalOriented(nu.algebra, nu.form) == nu
        for built in (unitalize(dec.lam, nu), form_to_algebra(nu.form)):
            assert augmentation_check(built.algebra, built.e)
        h = hyp_algebra(t.algebra)
        assert is_nondegenerate(h.form) and OrientedAlgebra(h.algebra, h.phi) == h
        assert is_nondegenerate(rees_family(isotropic(t)).surgered)
        assert is_nondegenerate(surgery_inverse(isotropic(t)))
        # the connected-sum core finds its constant coordinate on every input
        assert connected_sum(t, t).algebra.dim == 2 * t.algebra.dim - 2
        assert homotopy_families(t).h_const.dim == t.algebra.dim + 2
    robber = robber_family(field)
    assert family_det_is_unit(robber)
    for name in ("const", "mv"):
        assert augmentation_check(robber, robber.augmentations[name])


def a2():
    """A_2 = QQ[y1, y2]/(y1 y2, y1^2 - y2^2, y1^3), oriented by the y1^2
    coefficient."""
    y1, y2 = poly_ring(QQ, "y1", "y2")
    A = quotient_algebra([y1 * y2, y1 * y1 - y2 * y2, y1 * y1 * y1])
    assert A.labels == ("1", "y1", "y2", "y1^2")
    return OrientedAlgebra(A, [0, 0, 0, 1])


def test_decompose_rejects_a_functional_that_is_no_augmentation():
    """e = (1, -2, 0, -2) is isotropic but no algebra map (e(y1)^2 = 4 !=
    e(y1^2)); unchecked, the split returned a non-associative V."""
    oa = a2()
    e = [1, -2, 0, -2]
    assert isotropy_check(oa, e) and not augmentation_check(oa.algebra, e)
    with pytest.raises(BadUnit, match="^e is not an algebra map to the base field$"):
        decompose_augmented(oa, e)


def isotropic_non_augmentations(field, n):
    """n seeded pairs (t, e), t from the corpus with dim >= 4, e isotropic
    for t.oa and not an algebra map: e = a + s t.e on the line through a
    random a along t.e, which is isotropic, with s the root of
    Q(a) + 2 s B(a, t.e) = 0 for the form B(u, v) = u·G^-1·v, Q(u) = B(u, u)."""
    rng = random.Random(f"isotropic non-augmentations {field}")
    ts = [t for t in corpus(field) if t.algebra.dim >= 4]
    out = []
    while len(out) < n:
        t = rng.choice(ts)
        a = [field.scalar(rng.randint(-3, 3)) for _ in range(t.algebra.dim)]
        pair = linalg.sum_dot(a, socle_generator(t.oa, t.e))
        if not pair:
            continue
        s = -linalg.sum_dot(a, socle_generator(t.oa, a)) / (pair + pair)
        e = tuple(x + s * y for x, y in zip(a, t.e))
        assert isotropy_check(t.oa, e)
        if not augmentation_check(t.algebra, e):
            out.append((t, e))
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_decompose_rejects_isotropic_non_augmentations(field):
    for t, e in isotropic_non_augmentations(field, 8):
        with pytest.raises(BadUnit, match="^e is not an algebra map to the base field$"):
            decompose_augmented(t.oa, e)


def typed_form(B):
    return [[(type(x.value), x.value) for x in row] for row in B.gram]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_unit_line_surgery_is_the_public_surgery(field):
    """rees_family and surgery_inverse hand surgery's core the unit line as
    the unit itself, not as its RREF row (the corpus units are scrambled,
    some with a leading 0): the same form and section, with the same value
    types, as the public surgery along Subspace(d, [1])."""
    for t in corpus(field):
        oa = isotropic(t)
        want = surgery(oa.form, Subspace(oa.dim, [oa.algebra.unit]))
        rr = rees_family(oa)
        assert typed_form(rr.surgered) == typed_form(want.form)
        assert rr.adapted_basis[1:-1] == want.section
        assert typed_form(surgery_inverse(oa)) == typed_form(want.form)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_public_surgery_still_checks_its_form(field):
    B = BilinearForm(field, [[0, 0], [0, 1]])
    e0 = Subspace(2, [[field.one, field.zero]])
    with pytest.raises(Degenerate, match="^form is degenerate$"):
        surgery(B, e0)
    assert checks_run(lambda: surgery(BilinearForm(field, [[0, 1], [1, 0]]), e0)) == {
        "raw_det": 1}


def _refuse(*args, **kwargs):
    raise AssertionError("the robber's socle generator was recomputed")


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_robber_socle_generator_is_kept_with_the_robber(field):
    """Computed once per field, next to the robber family: two calls return
    one tuple, and homotopy_families recomputes nothing."""
    kept = families._robber(field)
    assert families._robber(field) is kept
    robber, x2 = kept
    assert robber is robber_family(field)
    assert x2 == family_socle_generator(robber, "const")
    with mock.patch.object(families, "family_socle_generator", _refuse):
        assert homotopy_families(corpus(field)[3]).h_const.dim == corpus(field)[3].algebra.dim + 2
