"""Exact base fields (arbitrary-precision rationals and prime fields) and
univariate polynomials in the family parameter t.

All values are immutable; every operation is a pure function.  No floating
point is used anywhere: degeneracy tests elsewhere in the library rely on
exact zero tests of these scalars.

``poly_mul`` and ``poly_sub`` are the product and difference of raw
coefficient lists (ints mod p, or Fractions over QQ, low degree first).  The
``TPoly`` operators +, - and * unbox their operands once, call them, and box
the result once.  ``linalg`` imports them for ``bareiss``, so
``linalg.poly_mul`` and ``linalg.poly_sub`` name the same functions.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import BadParameter, BudgetExceeded, FieldMismatch, ZeroInput


# ---------------------------------------------------------------------------
# number-theoretic helpers (deterministic, desk scale)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # = 1287836182261 * 2575672364521


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases, 2 to 41: deterministic below
    psi_13 = 3317044064679887385961981, the least strong pseudoprime to all
    of them (Sorenson & Webster, Math. Comp. 2017); above it a strong
    probable-prime test, which ``Field`` does not take as a proof."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant with deterministic parameter sweep.
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}.

    A cofactor that passes ``is_prime`` is proven prime only below psi_13;
    one at or above it raises BudgetExceeded, as no proof is at hand."""
    if n <= 0:
        raise ZeroInput("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 100_000:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += steps[i]
            i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            if m >= _PSI_13:
                raise BudgetExceeded(f"cannot factor: the cofactor {m} is not proven prime: "
                                     "Miller-Rabin to the bases 2 to 41 is a proof only "
                                     f"below psi_13 = {_PSI_13}")
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return out


def squarefree_part(n: int) -> int:
    """The squarefree integer with the same square class as n (sign kept)."""
    if n == 0:
        raise ZeroInput("0 has no square class")
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorize(abs(n)).items():
        if e % 2:
            out *= p
    return out


# ---------------------------------------------------------------------------
# fields


class Field:
    """A base field: the rationals (characteristic 0) or a prime field F_p,
    p proven prime: below psi_13, where ``is_prime`` is a proof.

    Instances are interned so identity comparison is the common fast path.
    ``zero`` and ``one`` are made once per field: both are immutable.
    """

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic: int):
        if not isinstance(characteristic, int) or (characteristic and not is_prime(characteristic)):
            raise BadParameter(f"{characteristic} is not prime")
        if characteristic >= _PSI_13:
            raise BadParameter(f"{characteristic} is not proven prime: Miller-Rabin to the bases "
                               f"2 to 41 is a proof only below psi_13 = {_PSI_13}")
        object.__setattr__(self, "characteristic", characteristic)
        object.__setattr__(self, "zero", Scalar(self, 0 if characteristic else Fraction(0)))
        object.__setattr__(self, "one", Scalar(self, 1 if characteristic else Fraction(1)))

    def __setattr__(self, *a):
        raise AttributeError("Field is immutable")

    @property
    def kind(self) -> str:
        return "Rationals" if self.characteristic == 0 else "PrimeField"

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"

    # -- element construction

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"{value} is not in {self}")
            return value
        if isinstance(value, float):
            raise BadParameter(f"{value!r} is a float; pass an int or a Fraction")
        try:
            if self.characteristic == 0:
                return Scalar(self, Fraction(value))
            if isinstance(value, Fraction):
                num = value.numerator % self.characteristic
                den = value.denominator % self.characteristic
                if den == 0:
                    raise ZeroInput(f"denominator of {value} vanishes in {self}")
                return Scalar(self, num * pow(den, -1, self.characteristic) % self.characteristic)
            return Scalar(self, int(value) % self.characteristic)
        except (ValueError, ZeroDivisionError) as ex:  # a string it cannot read
            raise BadParameter(f"cannot parse scalar {value!r}: {ex}") from ex

    def parse(self, text: str) -> "Scalar":
        """Inverse of Scalar.__str__: "p/q", "p", or "r mod p"."""
        text = text.strip()
        try:
            if " mod " in text:
                r, p = text.split(" mod ")
                if self.characteristic != int(p):
                    raise FieldMismatch(f"'{text}' does not live in {self}")
                return self.scalar(int(r))
            return self.scalar(Fraction(text))
        except (ValueError, ZeroDivisionError) as ex:
            raise BadParameter(f"cannot parse scalar {text!r}: {ex}") from ex

    def elements(self):
        """Iterate the whole field; only available for prime fields."""
        if self.characteristic == 0:
            raise FieldMismatch("the rationals are infinite")
        return (self.scalar(i) for i in range(self.characteristic))


@lru_cache(maxsize=None)
def GF(p: int) -> Field:
    """The prime field F_p; QQ is Field(0), never GF(0)."""
    if p == 0:
        raise BadParameter("0 is not prime")
    return Field(p)


class Scalar:
    """A field element: a reduced Fraction over QQ, a residue in [0,p) over F_p."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is self.field or other.field == self.field:
                return other
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.characteristic
        if p == 0:
            return Scalar(self.field, self.value + o.value)
        return Scalar(self.field, (self.value + o.value) % p)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.characteristic
        if p == 0:
            return Scalar(self.field, -self.value)
        return Scalar(self.field, -self.value % p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.characteristic
        if p == 0:
            return Scalar(self.field, self.value - o.value)
        return Scalar(self.field, (self.value - o.value) % p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, TPoly):
            return NotImplemented  # defer to TPoly.__rmul__
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.characteristic
        if p == 0:
            return Scalar(self.field, self.value * o.value)
        return Scalar(self.field, self.value * o.value % p)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroInput("division by zero")
        p = self.field.characteristic
        if p == 0:
            return Scalar(self.field, 1 / self.value)
        return Scalar(self.field, pow(self.value, -1, p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self == self.field.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.characteristic, self.value))

    def __str__(self):
        try:
            if self.field.characteristic == 0:
                return str(self.value)
            return f"{self.value} mod {self.field.characteristic}"
        except ValueError as ex:  # an int past sys.get_int_max_str_digits()
            raise BudgetExceeded(f"a value exceeds the {sys.get_int_max_str_digits()}-digit "
                                 "limit for integer string conversion") from ex

    def __repr__(self):
        return f"Scalar({self})"


QQ = Field(0)  # after Scalar: a Field makes its zero and one


def square_class(a: Scalar) -> Scalar:
    """Canonical representative of a nonzero scalar modulo nonzero squares.

    Over QQ: the squarefree integer part with sign (a = p/q and p*q have the
    same class).  Over F_p with p odd: 1 for residues, the smallest
    non-residue otherwise.  Over F_2: always 1.
    """
    if not a:
        raise ZeroInput("square_class of 0")
    f = a.field
    p = f.characteristic
    if p == 0:
        return f.scalar(squarefree_part(a.value.numerator * a.value.denominator))
    if p == 2:
        return f.one
    if pow(a.value, (p - 1) // 2, p) == 1:
        return f.one
    r = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
    return f.scalar(r)


# ---------------------------------------------------------------------------
# univariate polynomials in t


def poly_mul(a, b, p: int):
    """Product of two raw coefficient lists (low degree first, no trailing
    zeros, [] for 0): ints mod p, or at p = 0 integers or Fractions, where a
    coefficient that no pair of terms reaches stays the int 0."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [v % p for v in out] if p else out


def poly_sub(a, b, p: int):
    """Difference of two raw coefficient lists, as for poly_mul."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = [x - y for x, y in zip(a, b)] + a[len(b):]
    if p:
        out = [v % p for v in out]
    while out and not out[-1]:
        out.pop()
    return out


class TPoly:
    """A polynomial in the family parameter t, coefficients low degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        coeffs = tuple(field.scalar(c) for c in coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("TPoly is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "TPoly":
        return cls(c.field, (c,))

    @classmethod
    def t(cls, field: Field) -> "TPoly":
        return cls(field, (0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ZeroInput(f"{self} is not constant")
        return self.coeffs[0] if self.coeffs else self.field.zero

    def _coerce(self, other):
        if isinstance(other, TPoly):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return TPoly.const(other)
        if isinstance(other, (int, Fraction)):
            return TPoly.const(self.field.scalar(other))
        return NotImplemented

    def _values(self) -> list:
        return [c.value for c in self.coeffs]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.characteristic
        return TPoly(self.field, poly_sub(self._values(), poly_sub([], o._values(), p), p))

    __radd__ = __add__

    def __neg__(self):
        return TPoly(self.field, poly_sub([], self._values(), self.field.characteristic))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return TPoly(self.field, poly_sub(self._values(), o._values(), self.field.characteristic))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return TPoly(self.field, poly_mul(self._values(), o._values(), self.field.characteristic))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise BadParameter(f"negative exponent {n}: a polynomial has no inverse power")
        out = TPoly.const(self.field.one)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "TPoly":
        """Multiply by t**k, k >= 0."""
        if k < 0:
            raise BadParameter(f"negative shift {k}: t has no inverse power")
        if not self.coeffs:
            return self
        return TPoly(self.field, (self.field.zero,) * k + self.coeffs)

    def divmod(self, other: "TPoly") -> tuple["TPoly", "TPoly"]:
        o = self._coerce(other)
        if not o:
            raise ZeroInput("division by the zero polynomial")
        rem = list(self.coeffs)
        lead = o.coeffs[-1]
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return TPoly(self.field), self
        quot = [self.field.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(o.coeffs) - 1] / lead
            quot[k] = c
            if c:
                for i, oc in enumerate(o.coeffs):
                    rem[k + i] = rem[k + i] - c * oc
        return TPoly(self.field, quot), TPoly(self.field, rem)

    def divexact(self, other: "TPoly") -> "TPoly":
        q, r = self.divmod(other)
        if r:
            raise ZeroInput(f"{self} is not divisible by {other}")
        return q

    def __call__(self, c) -> Scalar:
        return tpoly_eval(self, c)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, (Scalar, int, Fraction, TPoly)):
            o = self._coerce(other)
            return self.field == o.field and self.coeffs == o.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.characteristic, self.coeffs))

    def serialize(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"({c})*t" if " " in str(c) else f"{c}*t")
            else:
                parts.append(f"({c})*t^{i}" if " " in str(c) else f"{c}*t^{i}")
        return " + ".join(parts)

    __repr__ = __str__


def tpoly_eval(f: TPoly, c) -> Scalar:
    """Evaluate f at the scalar c by Horner's rule."""
    c = f.field.scalar(c)
    acc = f.field.zero
    for coeff in reversed(f.coeffs):
        acc = acc * c + coeff
    return acc


def as_tpoly(x, field: Field) -> TPoly:
    if isinstance(x, TPoly):
        if x.field is not field and x.field != field:
            raise FieldMismatch(f"{field} vs {x.field}")
        return x
    return TPoly.const(field.scalar(x))

