"""Seeded random corpus of isotropically augmented oriented algebras.

Each sample is assembled from blocks whose Frobenius structure is known
(nilpotent chains, form extensions, reduced points), carries its
augmentation through a non-reduced block so isotropy holds, and is then
scrambled by a random change of basis.  The tables are valid by
construction, as direct products and base changes of valid blocks, and the
library validates only the form blocks (``unitalize``); it checks every
sample's orientation and augmentation.
"""

import random

from gorlab import linalg
from gorlab.algebra import FiniteAlgebra, base_change, direct_product
from gorlab.forms import BilinearForm, is_nondegenerate
from gorlab.frobenius import Augmented, OrientedAlgebra, unitalize, NonUnitalOriented


def random_nondegenerate_form(rng, field, m, bound=3):
    while True:
        g = [[field.scalar(rng.randint(-bound, bound)) for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i):
                g[i][j] = g[j][i]
        B = BilinearForm(field, g)
        if is_nondegenerate(B):
            return B


def random_invertible(rng, field, d, bound=2):
    while True:
        P = [[field.scalar(rng.randint(-bound, bound)) for _ in range(d)] for _ in range(d)]
        try:
            linalg.invert(field, P)
            return linalg.mat(P)
        except Exception:
            continue


def chain_block(rng, field, n):
    """k[x]/x^n with a random orientation (top coefficient a unit) and the
    augmentation x -> 0 (isotropic for n >= 2)."""
    z = field.zero
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j < n:
                c[i][j][i + j] = field.one
    labels = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, n)]
    A = FiniteAlgebra(field, labels, c, unit=[1] + [0] * (n - 1), validate=False)
    phi = [field.scalar(rng.randint(-4, 4)) for _ in range(n)]
    while True:
        top = field.scalar(rng.randint(-4, 4))
        if top:
            phi[n - 1] = top
            break
    e = tuple([field.one] + [z] * (n - 1))
    return A, tuple(phi), e


def point_block(rng, field):
    """The base field as an algebra, with a random nonzero orientation."""
    A = FiniteAlgebra(field, ["1"], [[[field.one]]], unit=[1], validate=False)
    while True:
        v = field.scalar(rng.randint(-4, 4))
        if v:
            return A, (v,)


def form_block(rng, field, m):
    """unitalize(lambda, (V, B, 0)) for a random non-degenerate B on k^m."""
    B = random_nondegenerate_form(rng, field, m)
    z = field.zero
    zero_mult = [[[z] * m for _ in range(m)] for _ in range(m)]
    V = FiniteAlgebra(field, [f"v{i+1}" for i in range(m)], zero_mult, None, validate=False)
    lam = field.scalar(rng.randint(-3, 3))
    return unitalize(lam, NonUnitalOriented(V, B))


def random_augmented(rng, field, dim) -> Augmented:
    """A random isotropically augmented oriented algebra of the given
    dimension (>= 2), in a scrambled basis."""
    if dim < 2:
        raise ValueError("need dim >= 2")
    # pointed block: a chain or a form extension, both isotropic
    choices = [("chain", n) for n in range(2, min(4, dim) + 1)]
    choices += [("form", k) for k in range(2, dim + 1)]
    kind, b = rng.choice(choices)
    if kind == "chain":
        A, phi, e = chain_block(rng, field, b)
    else:
        t = form_block(rng, field, b - 2)
        A, phi, e = t.algebra, t.oa.phi, t.e
    # fillers: reduced points and unpointed chains
    rest = dim - b
    while rest > 0:
        if rest == 1 or rng.random() < 0.5:
            F, fphi = point_block(rng, field)
        else:
            n = rng.randint(2, min(4, rest))
            F, fphi, _ = chain_block(rng, field, n)
        A = direct_product(A, F)
        phi = tuple(phi) + tuple(fphi)
        e = tuple(e) + (field.zero,) * F.dim
        rest -= F.dim
    P = random_invertible(rng, field, dim, bound=2 if dim <= 6 else 1)
    A2 = base_change(A, P)
    phi2 = tuple(linalg.sum_dot(row, phi) for row in P)
    e2 = tuple(linalg.sum_dot(row, e) for row in P)
    return Augmented(OrientedAlgebra(A2, phi2), e2)


def build_corpus(field, count, seed=0):
    """`count` samples over the field; the first seven sweep dims 2..8."""
    rng = random.Random((seed, field.characteristic, "corpus").__str__())
    out = []
    for i in range(count):
        dim = 2 + i if i < 7 else rng.randint(2, 8)
        out.append(random_augmented(rng, field, min(dim, 8)))
    return out
