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
- ``degeneration_to_cw`` reads its (1, x, V) algebra off the input in the
  adapted basis, and its family has the ``serialize()`` bytes of the one
  built through ``unitalize``; it takes only the split of
  ``decompose_augmented`` (no table for V, no ``NonUnitalOriented``), and
  ``witt_invariants`` still rejects a degenerate V-form.
"""

import json
import random
from functools import lru_cache
from unittest import mock

import pytest

from gorlab import GF, QQ, algebra, frobenius, tensors
from gorlab.algebra import AlgebraFamily, FiniteAlgebra, validate_structure
from gorlab.families import (
    family_det_is_unit,
    homotopy_families,
    robber_family,
    scale_multiplication_family,
    specialize,
)
from gorlab.errors import Degenerate
from gorlab.forms import BilinearForm, is_nondegenerate, witt_invariants
from gorlab.frobenius import (
    OrientedAlgebra,
    _graded_family,
    augmentation_check,
    connected_sum,
    decompose_augmented,
    hyp_algebra,
    isotropy_check,
    rees_family,
    unitalize,
)
from gorlab.tensors import degeneration_to_cw

from corpus import build_corpus

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
