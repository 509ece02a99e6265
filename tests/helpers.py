"""Small routines that only the tests use, kept out of the library.

``full_space`` and ``zero_space`` name the two trivial subspaces,
``extend_to_basis`` and ``complement_in`` complete row bases (the latter
through ``linalg.raw_complement``, the choice ``forms.surgery`` makes), and
``graded_hilbert`` reads a Hilbert function off per-degree spanning forms.
"""

from gorlab import linalg
from gorlab.algebra import Subspace
from gorlab.poly import monomials_of_degree
from gorlab.scalar import Field


def full_space(field: Field, n: int) -> Subspace:
    return Subspace(n, linalg.identity(field, n))


def zero_space(n: int) -> Subspace:
    return Subspace(n, ())


def extend_to_basis(field: Field, rows, ambient: int):
    """Standard vectors completing an rref row set to a basis of k^ambient."""
    _, pivots = linalg.rref(rows, ambient)
    pivset = set(pivots)
    z, o = field.zero, field.one
    extra = []
    for c in range(ambient):
        if c not in pivset:
            v = [z] * ambient
            v[c] = o
            extra.append(tuple(v))
    return linalg.mat(extra)


def complement_in(field: Field, inner, outer, ambient: int):
    """Rows of `outer` completing `inner` to a basis of the outer row space.

    Both inputs must be rref bases with inner contained in outer; the choice
    is deterministic (greedy scan in row order, see linalg.raw_complement).
    """
    found, work = linalg.unbox([*inner, *outer])
    p = found.characteristic if found else 0
    picked = linalg.raw_complement(work[:len(inner)], work[len(inner):], p, ambient)
    return linalg.mat(outer[i] for i in picked)


def graded_hilbert(forms, nvars: int, bound: int) -> list[int]:
    """Hilbert function of k[x]/<forms> through the bound, assuming the forms
    are per-degree independent spanning sets, as
    ``poly.lowest_degree_initial_ideal`` produces them."""
    counts = [0] * (bound + 1)
    for f in forms:
        counts[f.total_degree()] += 1
    return [len(monomials_of_degree(nvars, s)) - counts[s] for s in range(bound + 1)]
