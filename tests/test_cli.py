import json
import sys
from pathlib import Path

import jsonschema
import pytest

from gorlab import cli, frobenius
from gorlab.algebra import FiniteAlgebra
from gorlab.cli import (
    compile_presentation,
    parse_presentation,
    run_command,
)
from gorlab.errors import (
    DuplicateClause,
    ParseError,
    UnknownMonomial,
    UnknownVariable,
)

A2_TEXT = """\
# the G-fat point A_2
field Q
vars y1 y2
rel y1*y2
rel y1^2 - y2^2
rel y1^3
orient y1^2 : 1
aug y1 = 0, y2 = 0
"""

# QQ^4 as QQ[x,y]/(x^2-1, y^2-1); the sum-of-evaluations orientation is
# 4 * (coefficient of 1) in the monomial basis
SUM_TEXT = """\
field Q
vars x y
rel x^2 - 1
rel y^2 - 1
orient 1 : 4
"""

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "gorlab" / "report.schema.json").read_text()
)


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, out


@pytest.fixture()
def a2_file(tmp_path):
    p = tmp_path / "a_2.alg"
    p.write_text(A2_TEXT)
    return str(p)


def test_parse_a2():
    doc = parse_presentation(A2_TEXT)
    assert doc.field.characteristic == 0
    assert doc.variables == ("y1", "y2")
    assert len(doc.relations) == 3
    cd = compile_presentation(doc)
    assert cd.algebra.dim == 4
    assert cd.phi == (
        cd.doc.field.zero,
        cd.doc.field.zero,
        cd.doc.field.zero,
        cd.doc.field.one,
    )


def test_parse_dual_numbers():
    doc = parse_presentation("field Q\nvars x\nrel x^2\n")
    cd = compile_presentation(doc)
    assert cd.algebra.labels == ("1", "x")


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_presentation("field Q\nvars x\nrel x^2 +\n")
    assert exc.value.line == 3
    assert exc.value.col == 10


def test_parse_rejects_juxtaposition():
    with pytest.raises(ParseError):
        parse_presentation("field Q\nvars x y\nrel x y\n")
    with pytest.raises(ParseError):
        parse_presentation("field Q\nvars x\nrel 3x\n")


def test_parse_duplicate_variable():
    with pytest.raises(DuplicateClause):
        parse_presentation("field Q\nvars x x\nrel x^2\n")


def test_parse_duplicate_clause():
    with pytest.raises(DuplicateClause):
        parse_presentation("field Q\nfield Q\nvars x\n")


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_presentation("field Q\nvars x\nrel x*z\n")


def test_parse_family_is_unknown_clause():
    with pytest.raises(ParseError) as exc:
        parse_presentation("field Q\nvars t x\nfamily\nrel x^2\n")
    assert str(exc.value).startswith("unknown clause 'family'")
    assert (exc.value.line, exc.value.col) == (3, 1)
    assert exc.value.expected == "field|vars|rel|orient|aug"


def test_orient_clause_must_be_standard_monomial():
    with pytest.raises(UnknownMonomial):
        compile_presentation(
            parse_presentation("field Q\nvars x\nrel x^2\norient x^2 : 1\n")
        )


def test_serialize_parse_roundtrip():
    doc = parse_presentation(A2_TEXT)
    again = parse_presentation(doc.serialize())
    assert again == doc
    doc2 = parse_presentation("field F 7\nvars x\nrel x^3 - 2*x\norient x^2 : 3\n")
    assert parse_presentation(doc2.serialize()) == doc2


def test_check_command(capsys, a2_file):
    code, payload, _ = run(capsys, "check", a2_file)
    assert code == 0
    assert payload["gorenstein"] == "yes"
    assert payload["witness"] == {"1": "0", "y1": "0", "y2": "0", "y1^2": "1"}
    assert payload["isotropic"] is True


def test_check_determinism(capsys, a2_file):
    _, _, out1 = run(capsys, "check", a2_file)
    _, _, out2 = run(capsys, "check", a2_file)
    assert out1 == out2


def test_orient_command(capsys, tmp_path):
    p = tmp_path / "ng.alg"
    p.write_text("field Q\nvars x y\nrel x^2\nrel x*y\nrel y^2\n")
    code, payload, _ = run(capsys, "orient", str(p), "--seed", "1", "--trials", "8")
    assert code == 0
    assert payload["status"] == "not_gorenstein"
    assert payload["trials"] == 0 and "witness" not in payload
    # J = Soc = (x, y) in the basis 1, x, y, re-verified on the library side
    # by test_frobenius.test_gorenstein_test_negative_certificate
    basis = [{"1": "0", "x": "1", "y": "0"}, {"1": "0", "x": "0", "y": "1"}]
    assert payload["certificate"] == {"nilradical": basis, "socle": basis}


def test_gorenstein_without_witness_reports(capsys, tmp_path):
    # F_2^9: idempotents x1..x8 and 1 - (x1 + ... + x8); the only orientation
    # is 1 on each of them, which 4 sampled functionals miss
    xs = [f"x{i}" for i in range(1, 9)]
    lines = ["field F 2", "vars " + " ".join(xs)]
    lines += [f"rel {x}^2 - {x}" for x in xs]
    lines += [f"rel {a}*{b}" for i, a in enumerate(xs) for b in xs[i + 1 :]]
    p = tmp_path / "f2_9.alg"
    p.write_text("\n".join(lines) + "\n")
    code, payload, _ = run(capsys, "orient", str(p), "--trials", "4")
    assert code == 0
    assert payload == {"schema": "gorlab/1", "command": "orient", "status": "gorenstein", "trials": 4}
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 0
    assert payload["dim"] == 9 and payload["gorenstein"] == "yes"


def test_orient_rejects_negative_counts(capsys, a2_file):
    for flag in ("--trials", "--symbolic-max-dim"):
        code, payload, _ = run(capsys, "orient", a2_file, flag, "-1")
        assert code == 2
        assert payload["kind"] == "UsageError"
        assert flag in payload["message"]


def test_socle_command(capsys, a2_file):
    code, payload, _ = run(capsys, "socle", a2_file)
    assert code == 0
    assert payload["socle_generator"] == {"1": "0", "y1": "0", "y2": "0", "y1^2": "1"}
    assert payload["isotropic"] is True


def _count_calls(monkeypatch, name, *modules):
    """The list that collects the calls of frobenius.<name>, patched in each
    of ``modules``."""
    calls, fn = [], getattr(frobenius, name)

    def counted(*a):
        calls.append(a)
        return fn(*a)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_check_builds_one_pairing(capsys, a2_file, monkeypatch):
    # the orientation's Gram read, which the OrientedAlgebra keeps, is made once
    calls, pairing = [], FiniteAlgebra.pairing
    monkeypatch.setattr(FiniteAlgebra, "pairing", lambda A, phi: calls.append(phi) or pairing(A, phi))
    code, payload, _ = run(capsys, "check", a2_file)
    assert code == 0 and payload["isotropic"] is True
    assert len(calls) == 1


def test_socle_solves_once(capsys, a2_file, monkeypatch):
    calls = _count_calls(monkeypatch, "socle_generator", frobenius, cli)
    code, payload, _ = run(capsys, "socle", a2_file)
    assert code == 0 and payload["isotropic"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["socle"], ["homotopy", "--which", "mv"], ["degenerate"],
                                  ["consum"]], ids=" ".join)
def test_the_aug_clause_is_checked_once(capsys, a2_file, monkeypatch, argv):
    """compile_presentation checks the aug clause; the Augmented that
    CompiledDocument.augmented builds does not check it again."""
    calls = _count_calls(monkeypatch, "augmentation_check", frobenius, cli)
    files = [a2_file] * (2 if argv[0] == "consum" else 1)
    code, _, _ = run(capsys, argv[0], *files, *argv[1:])
    assert code == 0
    assert len(calls) == len(files)


def test_consum_command(capsys, tmp_path):
    p = tmp_path / "dual.alg"
    p.write_text("field Q\nvars x\nrel x^2\norient x : 1\naug x = 0\n")
    code, payload, _ = run(capsys, "consum", str(p), str(p))
    assert code == 0
    assert len(payload["result"]["labels"]) == 2


def test_rees_command(capsys, a2_file):
    code, payload, _ = run(capsys, "rees", a2_file)
    assert code == 0
    assert len(payload["family"]["labels"]) == 4


def test_robber_command(capsys):
    code, payload, _ = run(capsys, "robber", "--at", "t=0")
    assert code == 0
    fib = payload["fiber"]
    assert fib["orientation"] == {"1": "0", "x": "0", "x^2": "0", "x^3": "1"}
    code, payload, _ = run(capsys, "robber")
    assert payload["family"]["labels"] == ["1", "x", "x^2", "x^3"]


def test_homotopy_command(capsys, tmp_path):
    p = tmp_path / "dual.alg"
    p.write_text("field Q\nvars x\nrel x^2\norient x : 1\naug x = 0\n")
    code, payload, _ = run(capsys, "homotopy", str(p), "--which", "mv", "--at", "t=1")
    assert code == 0
    assert payload["which"] == "mv"
    assert len(payload["fiber"]["labels"]) == 4


def test_degenerate_command(capsys, tmp_path):
    p = tmp_path / "c4.alg"
    p.write_text("field Q\nvars x\nrel x^4\norient x^3 : 1\naug x = 0\n")
    code, payload, _ = run(capsys, "degenerate", str(p))
    assert code == 0
    assert payload["invariants"]["rank"] == 2


def test_points_degenerate_command(capsys):
    code, payload, _ = run(capsys, "points-degenerate", "--q", "2", "--seed", "0")
    assert code == 0
    assert payload["hilbert"] == [1, 2, 1]


def test_tensor_command(capsys, a2_file):
    code, payload, _ = run(capsys, "tensor", a2_file, "--check", "1generic,commute")
    assert code == 0
    assert payload["one_generic"]["status"] == "witness"
    assert payload["strassen_commuting"] is True


def test_cw_command(capsys):
    code, payload, _ = run(capsys, "cw", "--q", "2")
    assert code == 0
    assert payload["tensor"]["dims"] == [4, 4, 4]


def test_witt_command_sum_form(capsys, tmp_path):
    p = tmp_path / "sum.alg"
    p.write_text(SUM_TEXT)
    code, payload, _ = run(capsys, "witt", str(p))
    assert code == 0
    assert payload["signature"] == 4  # QQ^4 with the sum orientation


def test_embed_hyp_command(capsys, tmp_path):
    p = tmp_path / "b.form.json"
    p.write_text(
        json.dumps(
            {
                "field": {"kind": "Rationals", "characteristic": 0},
                "gram": [["1", "0"], ["0", "-1"]],
            }
        )
    )
    code, payload, _ = run(capsys, "embed-hyp", str(p))
    assert code == 0
    assert payload["n"] == 2
    assert len(payload["embedding"]) == 4


def test_gro_command(capsys, tmp_path):
    p = tmp_path / "hyp.form.json"
    p.write_text(
        json.dumps(
            {
                "field": {"kind": "Rationals", "characteristic": 0},
                "gram": [["0", "1"], ["1", "0"]],
            }
        )
    )
    code, payload, _ = run(capsys, "gro", str(p), "--subspace", "1,0")
    assert code == 0 and payload["member"] is False
    code, payload, _ = run(capsys, "gro", str(p), "--subspace", "1,1")
    assert payload["member"] is True


def test_form_file_kind_must_match_characteristic(capsys, tmp_path):
    for kind, char in (("Rationals", 5), ("PrimeField", 0)):
        p = tmp_path / f"{kind}.form.json"
        field = {"kind": kind, "characteristic": char}
        p.write_text(json.dumps({"field": field, "gram": [["0", "1"], ["1", "0"]]}))
        code, payload, _ = run(capsys, "embed-hyp", str(p))
        assert code == 1
        assert payload["kind"] == "FieldMismatch"


def test_domain_error_exit_code(capsys, tmp_path):
    p = tmp_path / "broken.alg"
    p.write_text("field Q\nvars x\nrel x^2 +\n")
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1
    assert payload["kind"] == "SyntaxError"
    assert payload["location"] == {"line": 3, "col": 10}


def test_degenerate_orientation_is_domain_error(capsys, tmp_path):
    p = tmp_path / "deg.alg"
    p.write_text("field Q\nvars x\nrel x^2\norient 1 : 1\n")
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1
    assert payload["kind"] == "Degenerate"


def test_missing_file_is_json_io_error(capsys, tmp_path):
    code, payload, _ = run(capsys, "check", str(tmp_path / "nope.alg"))
    assert code == 1
    assert payload["kind"] == "IOError"
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, payload, _ = run(capsys, "embed-hyp", str(bad))
    assert code == 1 and payload["kind"] == "IOError"
    notform = tmp_path / "notform.json"
    notform.write_text('{"something": 1}')
    code, payload, _ = run(capsys, "gro", str(notform), "--subspace", "1,0")
    assert code == 1 and payload["kind"] == "IOError"


def test_non_utf8_algebra_file_is_json_io_error(capsys, tmp_path):
    p = tmp_path / "binary.alg"
    p.write_bytes(b"\xff\xfe")
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1 and payload["kind"] == "IOError"
    assert "not UTF-8" in payload["message"]


def test_non_utf8_form_file_is_json_io_error(capsys, tmp_path):
    p = tmp_path / "binary.form.json"
    p.write_bytes(b"\xff\xfe")
    code, payload, _ = run(capsys, "embed-hyp", str(p))
    assert code == 1 and payload["kind"] == "IOError"
    assert "not UTF-8" in payload["message"]


@pytest.mark.parametrize(
    "text,message,location",
    [
        ("field F 7/2\nvars x\nrel x^2\n", "characteristic must be an integer", (1, 9)),
        (
            "field Q\nvars x y\nrel x^2\nrel y^2\norient x^1/2*y : 1\n",
            "exponent must be an integer",
            (5, 10),
        ),
    ],
)
def test_rational_literal_where_an_integer_is_needed(capsys, tmp_path, text, message, location):
    p = tmp_path / "rational.alg"
    p.write_text(text)
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1
    assert payload["kind"] == "SyntaxError"
    assert payload["message"] == message
    assert payload["location"] == dict(zip(("line", "col"), location))


@pytest.mark.parametrize(
    "text,location",
    [
        ("field Q\nvars x\nrel x^2 - 1/0\n", (3, 11)),
        ("field F 7\nvars x\nrel x^2\naug x = 1/0\n", (4, 9)),
    ],
)
def test_zero_denominator_is_a_syntax_error(capsys, tmp_path, text, location):
    p = tmp_path / "zero.alg"
    p.write_text(text)
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1
    assert payload["kind"] == "SyntaxError"
    assert payload["message"] == "zero denominator"
    assert payload["location"] == dict(zip(("line", "col"), location))


ONES = "1" * 5000  # more digits than int() converts by default (4300)


@pytest.mark.parametrize(
    "text,location",
    [
        (f"field Q\nvars x\nrel x^2 - {ONES}\n", (3, 11)),
        (f"field Q\nvars x\nrel x^{ONES}\n", (3, 7)),
        (f"field Q\nvars x\nrel x^2\norient 1 : 1/{ONES}\n", (4, 12)),
    ],
    ids=["literal", "exponent", "denominator"],
)
def test_literal_with_too_many_digits_is_a_syntax_error(capsys, tmp_path, text, location):
    p = tmp_path / "digits.alg"
    p.write_text(text)
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1
    assert payload["kind"] == "SyntaxError"
    assert payload["message"] == "number has too many digits"
    assert payload["location"] == dict(zip(("line", "col"), location))


@pytest.mark.parametrize("argv", [["robber", "--at", "t=1e5000"], ["tensor", "{big}"]],
                         ids=["robber", "tensor"])
def test_report_value_with_too_many_digits_is_a_budget_error(capsys, tmp_path, argv):
    # the grammar takes a 2201-digit literal, but the square in the tensor
    # report, like 10^5000 in the robber's fiber, has more digits than str()
    # converts
    p = tmp_path / "big.alg"
    p.write_text(f"field Q\nvars x\nrel x^2 - {'7' * 2201}^2\n")
    code, payload, _ = run(capsys, *(a.format(big=p) for a in argv))
    assert code == 1
    assert payload["kind"] == "BudgetExceeded"
    assert payload["message"] == (f"a value exceeds the {sys.get_int_max_str_digits()}-digit "
                                  "limit for integer string conversion")


@pytest.mark.parametrize(
    "argv",
    [["cw", "--q", "2", "--field", "0"], ["robber", "--field", "0"], ["check", "{f}"]],
)
def test_characteristic_zero_is_not_a_prime_field(capsys, tmp_path, argv):
    p = tmp_path / "f0.alg"
    p.write_text("field F 0\nvars x\nrel x^2\n")
    code, payload, _ = run(capsys, *[a.format(f=p) for a in argv])
    assert code == 1
    assert payload["kind"] == "BadParameter"
    assert payload["message"] == "0 is not prime"


def test_usage_error_exit_code(capsys):
    code = run_command(["no-such-command"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["kind"] == "UsageError"


def test_pretty_flag(capsys, a2_file):
    code1 = run_command(["check", a2_file])
    plain = capsys.readouterr().out
    code2 = run_command(["check", a2_file, "--pretty"])
    pretty = capsys.readouterr().out
    assert code1 == code2 == 0
    assert json.loads(plain) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in plain


@pytest.mark.parametrize(
    "rel,char,col",
    [("x^²", "²", 7), ("x^2 - ²", "²", 11), ("x^2 - 1/²", "/", 12)],
)
def test_superscript_digit_is_a_syntax_error(capsys, tmp_path, rel, char, col):
    # '²' passes str.isdigit() but not int() or Fraction(); a literal ends
    # before it, so in 1/² the slash is left over
    p = tmp_path / "sup.alg"
    p.write_text(f"field Q\nvars x\nrel {rel}\n", encoding="utf-8")
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1
    assert payload["kind"] == "SyntaxError"
    assert payload["message"] == f"unexpected character {char!r}"
    assert payload["location"] == {"line": 3, "col": col}


def test_other_decimal_digits_are_literals(capsys, tmp_path):
    # Arabic-Indic three is a decimal digit: int('٣') == 3
    p = tmp_path / "arabic.alg"
    p.write_text("field Q\nvars x\nrel x^٣\n", encoding="utf-8")
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 0 and payload["dim"] == 3


@pytest.mark.parametrize("entry", [1, 0.5, True, None, ["1"]])
@pytest.mark.parametrize("argv", [["embed-hyp"], ["gro", "--subspace", "1,0"]])
def test_non_string_gram_entries_are_io_errors(capsys, tmp_path, entry, argv):
    p = tmp_path / "numeric.form.json"
    field = {"kind": "Rationals", "characteristic": 0}
    p.write_text(json.dumps({"field": field, "gram": [["0", entry], [entry, "0"]]}))
    code, payload, _ = run(capsys, argv[0], str(p), *argv[1:])
    assert code == 1
    assert payload["kind"] == "IOError"
    assert "is not a form file (field + gram)" in payload["message"]


@pytest.mark.parametrize("char", [False, True])
@pytest.mark.parametrize("argv", [["embed-hyp"], ["gro", "--subspace", "1,0"]])
def test_boolean_characteristic_is_an_io_error(capsys, tmp_path, char, argv):
    p = tmp_path / "bool.form.json"
    field = {"kind": "Rationals" if char is False else "PrimeField", "characteristic": char}
    p.write_text(json.dumps({"field": field, "gram": [["0", "1"], ["1", "0"]]}))
    code, payload, _ = run(capsys, argv[0], str(p), *argv[1:])
    assert code == 1
    assert payload["kind"] == "IOError"
    assert "is not a form file (field + gram)" in payload["message"]


def test_float_characteristic_is_not_prime(capsys, tmp_path):
    p = tmp_path / "float.form.json"
    field = {"kind": "PrimeField", "characteristic": 7.0}
    p.write_text(json.dumps({"field": field, "gram": [["1 mod 7"]]}))
    code, payload, _ = run(capsys, "embed-hyp", str(p))
    assert code == 1
    assert payload == {"schema": "gorlab/1", "kind": "BadParameter", "message": "7.0 is not prime"}


def test_check_over_a_composite_characteristic_is_a_domain_error(capsys, tmp_path):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the bases 2 to 37
    p = tmp_path / "psi12.alg"
    p.write_text("field F 318665857834031151167461\nvars x\nrel x^2\n")
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1
    assert payload["kind"] == "BadParameter"


def test_check_over_psi_13_is_a_domain_error(capsys, tmp_path):
    # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to the bases
    # 2 to 41, and no characteristic from it up is proven prime
    p = tmp_path / "psi13.alg"
    p.write_text("field F 3317044064679887385961981\nvars x\nrel x^2\n")
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1
    assert payload["kind"] == "BadParameter"
    assert "not proven prime" in payload["message"]


def test_witt_with_an_unproven_square_class_is_a_budget_error(capsys, tmp_path):
    # B_phi = diag(1, psi_13) over QQ: its square class rests on factoring
    # psi_13, which passes Miller-Rabin to the bases 2 to 41 unproven
    p = tmp_path / "psi13.alg"
    p.write_text("field Q\nvars x\nrel x^2 - 3317044064679887385961981\norient 1 : 1\n")
    code, payload, out = run(capsys, "witt", str(p))
    assert code == 1
    assert payload["kind"] == "BudgetExceeded"
    assert "3317044064679887385961981 is not proven prime" in payload["message"]
    assert "Traceback" not in out


@pytest.mark.parametrize("rel", ["(" * 250 + "x" + ")" * 250 + "^2", "-" * 500 + "x^2"],
                         ids=["parentheses", "signs"])
def test_deep_expression_is_a_syntax_error(capsys, tmp_path, rel):
    # the parser descends once per '(' and per unary '-'; past the
    # interpreter's depth the report is a SyntaxError where the descent stopped
    p = tmp_path / "deep.alg"
    p.write_text(f"field Q\nvars x\nrel {rel}\n")
    code, payload, _ = run(capsys, "check", str(p))
    assert code == 1
    assert payload["kind"] == "SyntaxError"
    assert payload["message"] == "expression nested too deeply"
    assert payload["location"]["line"] == 3 and 5 <= payload["location"]["col"] <= 4 + len(rel)


@pytest.mark.parametrize("rel", ["(" * 200 + "x" + ")" * 200 + "^2", "-" * 400 + "x^2"],
                         ids=["parentheses", "signs"])
def test_nested_expression_within_the_depth_parses(capsys, tmp_path, rel):
    deep, flat = tmp_path / "deep.alg", tmp_path / "flat.alg"
    deep.write_text(f"field Q\nvars x\nrel {rel}\n")
    flat.write_text("field Q\nvars x\nrel x^2\n")
    assert run(capsys, "check", str(deep)) == run(capsys, "check", str(flat))


@pytest.mark.parametrize("exc, message", [(MemoryError, "out of memory"),
                                          (RecursionError, "recursion too deep")])
def test_exhausted_resources_are_budget_reports(capsys, a2_file, monkeypatch, exc, message):
    def exhausting(args):
        raise exc()

    def emit(payload, pretty):
        # the failed work's frames are gone before the report is written
        assert sys.exc_info() == (None, None, None)
        real_emit(payload, pretty)

    real_emit = cli._emit
    monkeypatch.setitem(cli._COMMANDS, "check", (exhausting, *cli._COMMANDS["check"][1:]))
    monkeypatch.setattr(cli, "_emit", emit)
    code, payload, _ = run(capsys, "check", a2_file)
    assert code == 1
    assert payload == {"schema": "gorlab/1", "kind": "BudgetExceeded", "message": message}
