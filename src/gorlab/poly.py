"""Multivariate polynomials, Buchberger's algorithm, quotient algebras, and
graded flat limits of point ideals.

The single monomial order is graded reverse lexicographic with significance
increasing along the declared variable list (the last declared variable is
the largest).  This is the order under which the G-fat-point relations
y_i*y_j, y_i^2 - y_j^2, y_1^3 leave exactly {1, y_1, ..., y_q, y_1^2}
standard, which fixes the basis labels everywhere downstream.

Division and Buchberger run on raw coefficients: a polynomial is a dict
{monomial: raw value}, ints in [0, p) over F_p or Fractions over QQ, and a
divisor is stored monic as (leading monomial, tail).  ``_reduce`` is the one
reduction loop; it serves Buchberger (whose S-polynomials are formed
straight from two tails), ``normal_form`` and the structure constants of
``_quotient_with_index``.  ``_raw_add``, ``_raw_mul`` and ``_raw_pow`` are
the sum, product and power of raw polynomials; ``cli._parse_poly`` builds
its relations with them.  MultiPolys are unboxed on input and boxed once on
output.

Buchberger is ``_reduced_divisors``: it takes the generators in reduced,
prunes its pairs by the Gebauer–Möller update (``_update``), so relations
that echo earlier ones, as most of A_q's x_i^2 - x_j^2 do, form few
S-polynomials, and returns the reduced basis as monic divisors.  The public
``groebner_basis`` boxes them; ``_quotient_with_index`` hands them, raw, to
the staircase walk over their leading monomials (``_staircase``, which
``standard_monomials`` wraps; it walks degree by degree, not the box of pure
powers around the staircase) and to the normal forms of the products of
standard monomials.  ``_monomial_algebra`` writes the table as integer
planes over the lcm of its denominators (``linalg._integer_rows``), which
``FiniteAlgebra.on_read`` takes as they are; ``tensors.aq_algebra`` and
the points flat limit build their tables the same way.

The ``MultiPoly`` operators (+, -, *, ``scale``, ``term_mul``,
``substitute``) are thin wrappers over ``_raw_add`` and ``_raw_mul``, and so
are the minor expansion of ``det_multipoly`` and the shifted rows of
``lowest_degree_initial_ideal``, which ``linalg.raw_rref`` reduces.  That
function remains public API; ``points-degenerate`` no longer uses it.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub

from . import linalg
from .algebra import FiniteAlgebra
from .errors import (
    BadParameter,
    BoundTooSmall,
    DimensionMismatch,
    FieldMismatch,
    InfiniteDimensional,
    UnitIdeal,
    ZeroInput,
)
from .scalar import Field, Scalar

Monomial = tuple  # exponent tuples, one entry per variable


def mono_degree(m: Monomial) -> int:
    return sum(m)


def grevlex_key(m: Monomial):
    """Sort key: ascending under the order described in the module docstring."""
    return (sum(m), tuple(map(neg, m)))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_label(m: Monomial, variables) -> str:
    parts = []
    for name, e in zip(variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class MultiPoly:
    """A multivariate polynomial: a map from exponent tuples to nonzero scalars."""

    __slots__ = ("field", "variables", "terms", "_lm")

    def __init__(self, field: Field, variables, terms):
        variables = tuple(variables)
        n = len(variables)
        clean = {}
        for m, c in terms.items():
            m = tuple(m)
            if len(m) != n:
                raise DimensionMismatch(f"monomial {m} has wrong length")
            c = field.scalar(c)
            if c:
                clean[m] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lm", None)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables, {})

    @classmethod
    def constant(cls, field, variables, c):
        return cls(field, variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, field, variables, i):
        m = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(field, variables, {m: 1})

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.field != self.field or other.variables != self.variables:
                raise FieldMismatch("polynomials live in different rings")
            return other
        if isinstance(other, (int, Scalar)) or type(other).__name__ == "Fraction":
            return MultiPoly.constant(self.field, self.variables, other)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.field, self.variables, frozenset(self.terms.items())))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.characteristic
        return _boxed(self.field, self.variables, _raw_add(_raw(self), _raw(o), 1, p))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.characteristic
        return _boxed(self.field, self.variables, _raw_add({}, _raw(self), -1, p))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.characteristic
        return _boxed(self.field, self.variables, _raw_add(_raw(self), _raw(o), -1, p))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.characteristic
        return _boxed(self.field, self.variables, _raw_mul(_raw(self), _raw(o), p))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise BadParameter(f"negative exponent {n}: a polynomial has no inverse power")
        if not n:  # _raw_pow's power 0 is the int 1, and QQ values are Fractions
            return MultiPoly.constant(self.field, self.variables, 1)
        return _boxed(self.field, self.variables,
                      _raw_pow(_raw(self), n, len(self.variables), self.field.characteristic))

    def scale(self, c: Scalar) -> "MultiPoly":
        return self.term_mul((0,) * len(self.variables), c)

    def term_mul(self, m: Monomial, c: Scalar) -> "MultiPoly":
        raw = _raw_mul(_raw(self), {m: self.field.scalar(c).value}, self.field.characteristic)
        return _boxed(self.field, self.variables, raw)

    def leading_monomial(self) -> Monomial:
        if self._lm is None:
            if not self.terms:
                raise ZeroInput("the zero polynomial has no leading monomial")
            object.__setattr__(self, "_lm", max(self.terms, key=grevlex_key))
        return self._lm

    def leading_coeff(self) -> Scalar:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "MultiPoly":
        return self.scale(self.leading_coeff().inverse())

    def total_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=-1)

    def homogeneous_component(self, s: int) -> "MultiPoly":
        return MultiPoly(
            self.field,
            self.variables,
            {m: c for m, c in self.terms.items() if mono_degree(m) == s},
        )

    def evaluate(self, point) -> Scalar:
        point = [self.field.scalar(x) for x in point]
        acc = self.field.zero
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                for _ in range(e):
                    v = v * x
            acc = acc + v
        return acc

    def substitute(self, i: int, value: Scalar) -> "MultiPoly":
        """Plug a scalar into variable i (the variable list is unchanged)."""
        v, p = self.field.scalar(value).value, self.field.characteristic
        out: dict = {}
        for m, c in _raw(self).items():
            power = pow(v, m[i], p) if p else v ** m[i]
            _raw_add(out, {m[:i] + (0,) + m[i + 1 :]: c * power}, 1, p)
        return _boxed(self.field, self.variables, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            lbl = mono_label(m, self.variables)
            if lbl == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(lbl)
            else:
                parts.append(f"{c}*{lbl}" if " " not in str(c) else f"({c})*{lbl}")
        return " + ".join(parts)

    __repr__ = __str__


def poly_ring(field: Field, *names):
    """Generators of k[names], for building polynomials with operators."""
    return tuple(
        MultiPoly.variable(field, names, i) for i in range(len(names))
    )


# ---------------------------------------------------------------------------
# division and Buchberger, on raw coefficients


def _raw(f: MultiPoly) -> dict:
    return {m: c.value for m, c in f.terms.items()}


def _boxed(field: Field, variables, raw: dict) -> MultiPoly:
    """The MultiPoly of a raw term dict with reduced nonzero values."""
    f = object.__new__(MultiPoly)
    object.__setattr__(f, "field", field)
    object.__setattr__(f, "variables", variables)
    object.__setattr__(f, "terms", {m: Scalar(field, c) for m, c in raw.items()})
    object.__setattr__(f, "_lm", None)
    return f


def _raw_add(a: dict, b: dict, sign: int, p: int) -> dict:
    """a + sign*b on raw term dicts; a is updated in place."""
    for m, c in b.items():
        v = a.get(m)
        v = sign * c if v is None else v + sign * c
        if p:
            v %= p
        if v:
            a[m] = v
        else:
            a.pop(m, None)
    return a


def _raw_mul(a: dict, b: dict, p: int) -> dict:
    """a*b on raw term dicts."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            v = out.get(m)
            out[m] = c1 * c2 if v is None else v + c1 * c2
    if p:
        return {m: v % p for m, v in out.items() if v % p}
    return {m: v for m, v in out.items() if v}


def _raw_pow(base: dict, e: int, n: int, p: int) -> dict:
    """base^e on a raw term dict in n variables: one term in closed form,
    else by square-and-multiply, squaring no further than the last bit.
    The power 0 is 1 as an int."""
    if len(base) == 1:
        ((m, c),) = base.items()
        return {tuple(x * e for x in m): pow(c, e, p) if p else c**e}
    out = {(0,) * n: 1}
    while e:
        if e & 1:
            out = _raw_mul(out, base, p)
        e >>= 1
        if e:
            base = _raw_mul(base, base, p)
    return out


def _monic(lm, h: dict, p: int):
    """The monic divisor (lm, tail) of the raw polynomial h (consumed) with
    leading monomial lm."""
    lc = h.pop(lm)
    if p:
        inv = pow(lc, -1, p)
        return lm, {m: c * inv % p for m, c in h.items()}
    return lm, {m: c / lc for m, c in h.items()}


def _divisor(g: MultiPoly):
    return _monic(g.leading_monomial(), _raw(g), g.field.characteristic)


def _s_poly(f, g, l, p: int) -> dict:
    """S-polynomial of two monic divisors with lcm l of their leading
    monomials, straight from their tails."""
    (lf, tf), (lg, tg) = f, g
    qf, qg = mono_div(l, lf), mono_div(l, lg)
    out = {tuple(map(add, qf, m)): c for m, c in tf.items()}
    return _raw_add(out, {tuple(map(add, qg, m)): c for m, c in tg.items()}, -1, p)


def _reduce(work: dict, divisors, p: int) -> dict:
    """Remainder of the raw polynomial work (consumed) under division by the
    monic divisors [(lm, tail), ...], tried in order.

    The terms of work wait on a heap keyed by (-degree, monomial), whose
    minimum is the grevlex-largest monomial; a key whose monomial has since
    cancelled is skipped.  The remainder's terms come out in descending
    order, so its first key is its leading monomial.
    """
    heap = [(-sum(m), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, tail in divisors:
            if all(map(le, lm, m)):
                q = tuple(map(sub, m, lm))
                for tm, tc in tail.items():
                    n = tuple(map(add, q, tm))
                    v = work.get(n)
                    if v is None:
                        work[n] = -c * tc % p if p else -c * tc
                        heappush(heap, (-sum(n), n))
                    else:
                        v = (v - c * tc) % p if p else v - c * tc
                        if v:
                            work[n] = v
                        else:
                            del work[n]
                break
        else:
            rem[m] = c
    return rem


def normal_form(f: MultiPoly, gb) -> MultiPoly:
    """Remainder of f under multivariate division by a Groebner basis."""
    divisors = [_divisor(g) for g in gb if g]
    return _boxed(f.field, f.variables, _reduce(_raw(f), divisors, f.field.characteristic))


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    df, dg = _divisor(f), _divisor(g)
    raw = _s_poly(df, dg, mono_lcm(df[0], dg[0]), f.field.characteristic)
    return _boxed(f.field, f.variables, raw)


def groebner_basis(gens) -> list[MultiPoly]:
    """Reduced Groebner basis of the ideal generated by gens: the monic
    divisors of ``_reduced_divisors``, boxed once."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    field, variables, one = gens[0].field, gens[0].variables, gens[0].field.one.value
    return [_boxed(field, variables, {lm: one, **tail}) for lm, tail in _reduced_divisors(gens)]


def _reduced_divisors(gens) -> list:
    """The reduced Groebner basis of the nonzero MultiPolys gens, as monic
    divisors (lm, tail) of raw values by ascending leading monomial.

    Buchberger's algorithm with the Gebauer–Möller pair update, in the UPDATE
    form of Becker & Weispfenning (*Gröbner Bases*, GTM 141, 1993).  The
    generators enter by ascending leading monomial, each reduced by the basis
    so far; one that reduces to zero is dropped, so dependent relations make
    no pairs.  Every new element h goes through ``_update``.  The pending
    pair with the smallest lcm goes first, ties by index pair (i, j); its
    S-polynomial, reduced by the basis, enters as h when it is not zero.
    The basis stays minimal, so the reduced basis is its tails reduced once.
    """
    field, variables = gens[0].field, gens[0].variables
    for g in gens[1:]:
        if g.field != field or g.variables != variables:
            raise FieldMismatch("generators live in different rings")
    p = field.characteristic
    basis, pairs, queue = [], {}, []
    alive, G = [], []  # basis indices by ascending lm, and their divisors

    def enter(h):
        nonlocal alive, G
        if h:
            basis.append(_monic(next(iter(h)), h, p))
            alive = _update(basis, alive, pairs, queue)
            G = [basis[k] for k in alive]

    for g in sorted(gens, key=lambda g: grevlex_key(g.leading_monomial())):
        enter(_reduce(_raw(g), G, p))
    while queue:
        _, i, j = heappop(queue)
        l = pairs.pop((i, j), None)
        if l is not None:
            enter(_reduce(_s_poly(basis[i], basis[j], l, p), G, p))
    return [(lm, _reduce(dict(tail), G, p)) for lm, tail in G]


def _update(basis, alive, pairs, queue) -> list:
    """Becker–Weispfenning's UPDATE for the newest divisor h = basis[-1].

    Of the pairs (g, h), g alive, a pair goes when a strictly smaller lcm
    among them divides its lcm, and an equal-lcm group goes whole when it
    holds a coprime pair; one pair is queued per remaining lcm, unless both
    are monomials (the S-polynomial is 0).  An old pair (a, b) goes when
    lm(h) divides its lcm and differs from both lcm(a, h) and lcm(b, h)
    (criterion B_k).  Returns the indices alive once h joins, by ascending
    leading monomial: h and those whose leading monomial lm(h) does not
    divide.
    """
    t = len(basis) - 1
    lm_t, tail_t = basis[t]
    groups: dict = {}  # lcm -> the alive g with lcm(lm(g), lm(h)) = lcm
    for g in alive:
        groups.setdefault(mono_lcm(basis[g][0], lm_t), []).append(g)
    for (a, b), l in list(pairs.items()):
        if (
            mono_divides(lm_t, l)
            and mono_lcm(basis[a][0], lm_t) != l
            and mono_lcm(basis[b][0], lm_t) != l
        ):
            del pairs[(a, b)]
    minimal = []  # the lcms no other lcm strictly divides, met by ascending degree
    for l in sorted(groups, key=sum):
        if any(mono_divides(l2, l) for l2 in minimal):
            continue
        minimal.append(l)
        gs = groups[l]
        if any(l == mono_mul(basis[g][0], lm_t) for g in gs):
            continue
        g = gs[0]
        if tail_t or basis[g][1]:
            pairs[(g, t)] = l
            heappush(queue, (grevlex_key(l), g, t))
    alive = [g for g in alive if not mono_divides(lm_t, basis[g][0])]
    insort(alive, t, key=lambda k: grevlex_key(basis[k][0]))
    return alive


def standard_monomials(gb, cap: int = 100_000) -> list[Monomial]:
    """Monomials outside the leading-term ideal of gb, sorted ascending: the
    canonical basis of the quotient ring (``_staircase``)."""
    gb = [g for g in gb if g]
    if not gb:
        raise InfiniteDimensional("the zero ideal has infinite quotient")
    return _staircase({g.leading_monomial() for g in gb}, len(gb[0].variables), cap)


def _staircase(lms, nvars: int, cap: int) -> list[Monomial]:
    """The monomials in nvars variables that no monomial of the set lms
    divides, sorted ascending, for lms the leading monomials of a Groebner
    basis.

    The order ideal is walked degree by degree: a monomial u of degree s + 1
    is reached once, from u / x_i for the last variable x_i in u, and is
    standard when it is no leading monomial and u / x_j is standard (of
    degree s) for every x_j in u.  So the cost follows the staircase, not
    the box of pure powers.  Raises InfiniteDimensional when some variable
    has no pure power among lms (the staircase is infinite) or the staircase
    exceeds cap.
    """
    if any(mono_degree(m) == 0 for m in lms):
        return []  # unit ideal: zero ring
    for i in range(nvars):
        if not any(m[i] == mono_degree(m) for m in lms):
            raise InfiniteDimensional(f"no pure power of variable {i} in the ideal")
    out, layer = [], [(0,) * nvars]
    while layer:
        out += layer
        if len(out) > cap:
            raise InfiniteDimensional(f"more than {cap} standard monomials")
        below, standard, layer = layer, set(layer), []
        for m in below:
            last = max((k for k, e in enumerate(m) if e), default=0)
            for i in range(last, nvars):
                u = m[:i] + (m[i] + 1,) + m[i + 1 :]
                if u not in lms and all(
                    u[:j] + (u[j] - 1,) + u[j + 1 :] in standard
                    for j in range(last + 1)
                    if j != i and u[j]
                ):
                    layer.append(u)
    out.sort(key=grevlex_key)
    return out


def quotient_algebra(gens, cap: int = 100_000) -> FiniteAlgebra:
    """Compile a finite-dimensional quotient presentation into an algebra.

    Basis: the standard monomials; structure constants by normal form of
    pairwise products; the unit is the class of 1.
    """
    return _quotient_with_index(gens, cap)[0]


def _quotient_with_index(gens, cap: int = 100_000):
    """quotient_algebra and its basis index {standard monomial: position}.

    One Buchberger run gives the reduced monic divisors; the staircase is
    walked over their leading monomials, and each product of two standard
    monomials is reduced by them on raw values.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise InfiniteDimensional("the zero ideal has infinite quotient")
    field, variables = gens[0].field, gens[0].variables
    divisors = _reduced_divisors(gens)
    monos = _staircase({lm for lm, _ in divisors}, len(variables), cap)
    if not monos:
        raise UnitIdeal("the relations generate the unit ideal")
    one, p = field.one.value, field.characteristic
    return _monomial_algebra(field, variables, monos, lambda u: _reduce({u: one}, divisors, p))


def _monomial_algebra(field: Field, variables, monos, normal_form):
    """The algebra on the standard monomials ``monos`` (ascending, so 1
    first), not validated, and its index {monomial: position}.

    Its table holds ``normal_form(u)``, a {standard monomial: raw value}
    dict, for each product u of two of them that is not itself standard (a
    standard u is its own normal form), taken once.  The planes are written
    as integers over L, the lcm of the denominators of the entries (L = 1
    over F_p), and boxed on first read.
    """
    index = {m: i for i, m in enumerate(monos)}
    d = len(monos)
    forms = []
    for i, mi in enumerate(monos):
        for j in range(i, d):
            u = mono_mul(mi, monos[j])
            forms.append((i, j, {u: 1} if u in index else normal_form(u)))
    (values,), L = linalg._integer_rows([[c for _, _, nf in forms for c in nf.values()]])
    values, rows = iter(values), [[None] * d for _ in range(d)]
    for i, j, nf in forms:
        row = rows[i][j] = rows[j][i] = [0] * d
        for m in nf:
            row[index[m]] = next(values)
    planes = [[(0, M)] if any(map(any, M)) else [] for M in rows]
    unit = [field.one] + [field.zero] * (d - 1)
    labels = [mono_label(m, variables) for m in monos]
    return FiniteAlgebra.on_read(planes, L, field, labels, unit, validate=False), index


# ---------------------------------------------------------------------------
# flat limits of point ideals


def monomials_of_degree(nvars: int, s: int) -> list[Monomial]:
    if nvars == 0:
        return [()] if s == 0 else []
    out = []

    def rec(prefix, rem, pos):
        if pos == nvars - 1:
            out.append(tuple(prefix + [rem]))
            return
        for e in range(rem + 1):
            rec(prefix + [e], rem - e, pos + 1)

    rec([], s, 0)
    out.sort(key=grevlex_key)
    return out


def lowest_degree_initial_ideal(gens, degree_bound: int) -> list[MultiPoly]:
    """Initial forms of a point ideal, degree by degree up to the bound.

    For an ideal I of a finite point set, the flat limit at 0 of the
    rescaled family t*V(I) is cut out by the initial forms in(f) of the
    elements of I: the homogeneous components of top degree.  (Under the
    reverse rescaling these are the forms of lowest degree in 1/t, whence
    the traditional name.)  Computed by exact linear algebra on graded
    pieces; the result lists, for each degree s <= degree_bound, an
    independent spanning set of in(I)_s.

    Raises UnitIdeal if 1 is an initial form, and BoundTooSmall when the
    graded quotient has not died by degree_bound (its total dimension over
    all degrees would then not have stabilized).
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ZeroInput("no generators")
    field, variables = gens[0].field, gens[0].variables
    nvars = len(variables)
    D = degree_bound
    monos_by_deg = [monomials_of_degree(nvars, s) for s in range(D + 1)]
    # columns ordered by descending degree so pivots isolate top components
    columns = []
    for s in range(D, -1, -1):
        columns.extend(monos_by_deg[s])
    col_index = {m: i for i, m in enumerate(columns)}
    deg_start = {}
    pos = 0
    for s in range(D, -1, -1):
        deg_start[s] = pos
        pos += len(monos_by_deg[s])

    p = field.characteristic
    one, zero = field.one.value, field.zero.value
    rows = []
    for g in gens:
        if g.field != field or g.variables != variables:
            raise FieldMismatch("generators live in different rings")
        dg = g.total_degree()
        if dg > D:
            continue
        raw = _raw(g)
        for s in range(D - dg + 1):
            for m in monos_by_deg[s]:
                row = [zero] * len(columns)
                for mm, cc in _raw_mul(raw, {m: one}, p).items():
                    row[col_index[mm]] = cc
                rows.append(row)
    pivots = linalg.raw_rref(rows, p, len(columns))

    forms: list[MultiPoly] = []
    count_by_deg = {s: 0 for s in range(D + 1)}
    for row, c in zip(rows, pivots):
        s = mono_degree(columns[c])
        start = deg_start[s]
        terms = {m: row[start + k] for k, m in enumerate(monos_by_deg[s]) if row[start + k]}
        forms.append(_boxed(field, variables, terms))
        count_by_deg[s] += 1
    if count_by_deg[0]:
        raise UnitIdeal("1 is an initial form: the input ideal is the unit ideal")
    if len(monos_by_deg[D]) - count_by_deg[D] != 0:
        raise BoundTooSmall(
            f"graded quotient still has dimension in degree {D}; raise the bound"
        )
    forms.sort(key=lambda f: grevlex_key(f.leading_monomial()))
    return forms


def det_multipoly(matrix, field: Field, variables) -> MultiPoly:
    """Determinant of a matrix of polynomials, by minor expansion with
    memoization over column subsets (fine through dimension ~10), on raw
    term dicts."""
    n, p, variables = len(matrix), field.characteristic, tuple(variables)
    memo = {(): {(0,) * len(variables): field.one.value}}

    def rec(cols: tuple) -> dict:
        if cols not in memo:
            r, acc = n - len(cols), {}
            for pos, c in enumerate(cols):
                entry = matrix[r][c]
                if entry:
                    if entry.field != field or entry.variables != variables:
                        raise FieldMismatch("polynomials live in different rings")
                    sub = rec(cols[:pos] + cols[pos + 1 :])
                    _raw_add(acc, _raw_mul(_raw(entry), sub, p), (-1) ** pos, p)
            memo[cols] = acc
        return memo[cols]

    return _boxed(field, variables, rec(tuple(range(n))))
