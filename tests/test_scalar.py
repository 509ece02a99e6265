import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gorlab.errors import BadParameter, BudgetExceeded, FieldMismatch, ZeroInput
from gorlab.scalar import (
    GF,
    QQ,
    Field,
    TPoly,
    factorize,
    is_prime,
    square_class,
    squarefree_part,
    tpoly_eval,
)

F7 = GF(7)
F5 = GF(5)

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


def test_field_descriptor_equality():
    assert QQ == Field(0)
    assert GF(7) == GF(7)
    assert GF(7) != GF(5)
    assert QQ != GF(7)
    assert QQ.kind == "Rationals"
    assert GF(7).kind == "PrimeField"


@pytest.mark.parametrize("field", [QQ, Field(0), GF(2), GF(7), Field(7)], ids=repr)
def test_zero_and_one_are_made_once(field):
    # each field holds one zero and one one, of the raw type its Scalars hold
    assert field.zero is field.zero and field.one is field.one
    kind = Fraction if field.characteristic == 0 else int
    assert type(field.zero.value) is kind and type(field.one.value) is kind
    assert (field.zero.value, field.one.value) == (0, 1)
    assert field.zero == field.scalar(0) and field.one == field.scalar(1)
    assert field.zero.field is field and field.one.field is field
    # still immutable, and equal and hashed by characteristic alone
    for name in ("zero", "one", "characteristic"):
        with pytest.raises(AttributeError):
            setattr(field, name, field.zero)
    same = Field(field.characteristic)
    assert same == field and hash(same) == hash(field) and {same: 1}[field] == 1


def test_prime_validation():
    with pytest.raises(BadParameter):
        GF(6)
    GF(2), GF(101), GF(2**61 - 1)


@pytest.mark.parametrize("p", [0, 1, 4, -7])
def test_gf_of_a_non_prime_is_rejected(p):
    # GF(0) is not QQ: QQ is Field(0)
    with pytest.raises(BadParameter, match=f"^{p} is not prime$"):
        GF(p)


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
@pytest.mark.parametrize("value", [0.5, 2.7, 0.1, 3.0])
def test_float_scalars_are_rejected(field, value):
    # GF(5).scalar(0.5) was 0 mod 5 and QQ.scalar(0.1) a 56-bit binary fraction
    with pytest.raises(BadParameter, match="is a float"):
        field.scalar(value)


@pytest.mark.parametrize("field, text", [(F5, "1/2"), (F5, "x"), (QQ, "abc"), (QQ, "1/0")],
                         ids=["F5-1/2", "F5-x", "QQ-abc", "QQ-1/0"])
def test_unreadable_strings_are_rejected(field, text):
    # GF(5).scalar("1/2") let int()'s ValueError out; now a BadParameter, as
    # in parse
    with pytest.raises(BadParameter, match=f"^cannot parse scalar {re.escape(repr(text))}: "):
        field.scalar(text)
    assert F5.scalar("12") == F5.scalar(2)


def test_parse_messages_are_unchanged():
    for field, text, why in [(F5, "x", "Invalid literal for Fraction: 'x'"),
                             (QQ, "abc", "Invalid literal for Fraction: 'abc'"),
                             (QQ, "1/0", "Fraction(1, 0)")]:
        with pytest.raises(BadParameter) as ex:
            field.parse(text)
        assert str(ex.value) == f"cannot parse scalar {text!r}: {why}"
    assert F5.parse("1/2") == F5.scalar(3)


def test_a_value_too_long_for_str_is_a_budget_error():
    # str() of an int past the interpreter's digit limit raises ValueError;
    # every scalar reaches report text through Scalar.__str__
    for x in (QQ.scalar(10**5000), QQ.scalar(Fraction(1, 10**5000))):
        with pytest.raises(BudgetExceeded, match="-digit limit for integer string conversion"):
            str(x)
    assert str(QQ.scalar(10**4000)) == "1" + "0" * 4000


def test_a_float_coordinate_is_rejected():
    from gorlab.tensors import degeneration_from_points

    with pytest.raises(BadParameter):
        degeneration_from_points(F5, [(0, 1), (0.5, 1), (2, 1)])


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 8)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


# psi_12, the least strong pseudoprime to the twelve prime bases 2 to 37
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_psi_12():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    with pytest.raises(BadParameter, match=f"^{PSI_12} is not prime$"):
        GF(PSI_12)
    assert is_prime(10**9 + 7) and is_prime(2**61 - 1)


# psi_13, the least strong pseudoprime to the thirteen prime bases 2 to 41
PSI_13 = 3317044064679887385961981


def test_field_refuses_psi_13_and_above():
    assert PSI_13 == 1287836182261 * 2575672364521
    assert is_prime(PSI_13)  # a strong pseudoprime: the test proves nothing here
    with pytest.raises(BadParameter, match=f"^{PSI_13} is not proven prime: .* below psi_13"):
        GF(PSI_13)


def test_the_largest_prime_below_psi_13_is_a_field():
    p = PSI_13 - 2
    while not is_prime(p):
        p -= 2
    F = GF(p)
    assert F.characteristic == p
    assert F.scalar(2) * F.scalar(-1) == F.scalar(p - 2)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    n = 1000003 * 1000033
    assert factorize(n) == {1000003: 1, 1000033: 1}


def test_factorize_refuses_an_unproven_cofactor():
    # psi_13 and 4·psi_13 leave the cofactor psi_13, a strong pseudoprime to
    # the bases 2 to 41; psi_13 - 168 is proven prime, being below psi_13
    for n in (PSI_13, 4 * PSI_13):
        with pytest.raises(BudgetExceeded, match=f"^cannot factor: the cofactor {PSI_13} is "
                                                 f"not proven prime: .* below psi_13 = {PSI_13}$"):
            factorize(n)
    q = PSI_13 - 168
    assert is_prime(q)
    assert factorize(6 * q) == {2: 1, 3: 1, q: 1}


def test_scalar_arithmetic_rationals():
    a = QQ.scalar(Fraction(3, 4))
    b = QQ.scalar(2)
    assert a + b == QQ.scalar(Fraction(11, 4))
    assert (a * b).value == Fraction(3, 2)
    assert (a / b).value == Fraction(3, 8)
    assert str(a) == "3/4"
    assert str(b) == "2"
    assert QQ.parse("3/4") == a


def test_scalar_arithmetic_prime_field():
    a = F7.scalar(5)
    b = F7.scalar(4)
    assert (a + b).value == 2
    assert (a * b).value == 6
    assert (a / b).value == 3  # 5 * 4^{-1} = 5 * 2 = 10 = 3
    assert str(a) == "5 mod 7"
    assert F7.parse("5 mod 7") == a
    with pytest.raises(FieldMismatch):
        F7.parse("5 mod 5")


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ.scalar(1) + F7.scalar(1)


@settings(derandomize=True, deadline=None)
@given(rationals, rationals, rationals)
def test_field_axioms_rationals(x, y, z):
    a, b, c = QQ.scalar(x), QQ.scalar(y), QQ.scalar(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == QQ.one


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_field_axioms_f101(x, y, z):
    f = GF(101)
    a, b, c = f.scalar(x), f.scalar(y), f.scalar(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == f.one


def test_square_class_examples():
    assert square_class(QQ.scalar(4)) == QQ.scalar(1)
    # derived oracle: -8 = (-2) * 2^2, squarefree part -2
    assert squarefree_part(-8) == -2
    assert square_class(QQ.scalar(-8)) == QQ.scalar(-2)
    # derived oracle: squares mod 7 are {1, 2, 4}; smallest non-residue is 3
    squares = {pow(n, 2, 7) for n in range(1, 7)}
    assert squares == {1, 2, 4}
    assert square_class(F7.scalar(3)) == F7.scalar(3)
    assert square_class(F7.scalar(2)) == F7.scalar(1)
    assert square_class(GF(2).scalar(1)) == GF(2).scalar(1)
    with pytest.raises(ZeroInput):
        square_class(QQ.zero)


@settings(derandomize=True, deadline=None)
@given(rationals, rationals)
def test_square_class_invariance(x, y):
    if x == 0 or y == 0:
        return
    a = QQ.scalar(x)
    b = QQ.scalar(y)
    assert square_class(a * b * b) == square_class(a)


def test_square_class_invariance_f7():
    for a in range(1, 7):
        for b in range(1, 7):
            lhs = square_class(F7.scalar(a * b * b))
            assert lhs == square_class(F7.scalar(a))


def test_tpoly_eval_examples():
    t = TPoly.t(QQ)
    f = t**2 + 1
    assert tpoly_eval(f, 0) == QQ.scalar(1)
    assert tpoly_eval(f, 1) == QQ.scalar(2)
    g = TPoly(F5, [0, -2])  # -2t over F5
    assert tpoly_eval(g, 3) == F5.scalar(4)


@settings(derandomize=True, deadline=None)
@given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6), rationals)
def test_tpoly_eval_is_ring_hom(fc, gc, c):
    f = TPoly(QQ, fc)
    g = TPoly(QQ, gc)
    x = QQ.scalar(c)
    assert tpoly_eval(f * g, x) == tpoly_eval(f, x) * tpoly_eval(g, x)
    assert tpoly_eval(f + g, x) == tpoly_eval(f, x) + tpoly_eval(g, x)


def test_tpoly_normalization_and_divmod():
    t = TPoly.t(QQ)
    assert TPoly(QQ, [1, 2, 0, 0]).coeffs == (QQ.scalar(1), QQ.scalar(2))
    f = (t - 1) * (t - 2) * (t + 5)
    q, r = f.divmod(t - 1)
    assert not r
    assert q == (t - 2) * (t + 5)
    assert f.divexact(t - 2) == (t - 1) * (t + 5)
    with pytest.raises(ZeroInput):
        (t + 1).divexact(t)
    assert f.shift(2) == f * t * t


def test_tpoly_serialization():
    t = TPoly.t(QQ)
    f = 3 * t**2 - 1
    assert f.serialize() == ["-1", "0", "3"]


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
def test_tpoly_negative_power_and_shift_are_domain_errors(field):
    # the square-and-multiply loop never ended on a negative exponent, and a
    # negative shift returned its input unchanged
    t = TPoly.t(field)
    with pytest.raises(BadParameter, match="negative exponent"):
        t ** -1
    with pytest.raises(BadParameter, match="negative shift"):
        (t * t).shift(-1)
    assert t ** 0 == TPoly.const(field.one) and (t * t).shift(0) == t * t
