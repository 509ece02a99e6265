"""``run_command`` on mutated .alg texts and on form files of arbitrary JSON.

Every call must end in exit code 0, 1 or 2 with exactly one JSON line on
stdout that validates against ``report.schema.json``; no exception may
escape.  The .alg texts are grammar token streams (field, vars, rel, orient
and aug clauses over at most three variables, exponents at most 4), mutated
by inserting, deleting or replacing tokens, among them non-ASCII characters
such as '²', '٣' and 'é', and literals of 5000 digits.  A variable's power
relation now and then nests the variable in up to 1000 parentheses or puts
it behind up to 2000 unary '-' signs, past the parser's depth (the
interpreter's, which hypothesis raises to about 2000 frames while a test
runs).  The form files hold Gram matrices of at most 4 x 4 entries, each
entry and each part of the file now and then replaced by an arbitrary JSON
value.  ``cw`` and ``points-degenerate`` run with q at most 3.  The bounds
keep every call small.
"""

import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gorlab.cli import run_command

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "gorlab" / "report.schema.json").read_text()
)
NAMES = ("x", "y", "z")
DIGITS = ("²", "٣", "½", "1²", "٣/2", "1/²")
STRANGE = (*DIGITS, "é", "\u00a0", "#", "/", ".", "x²")
FUZZ = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check_report(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (argv, code)
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    jsonschema.validate(json.loads(out), SCHEMA)


# ---------------------------------------------------------------------------
# .alg token streams


@st.composite
def monomials(draw, names):
    parts = []
    for v in names:
        e = draw(st.integers(0, 4))
        if e:
            parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts) or "1"


@st.composite
def nested(draw, term):
    """term, or the same value in n parentheses or behind 2n unary '-' signs,
    n at times past the parser's depth."""
    n = draw(st.sampled_from([0, 0, 0, 1, 2, 200, 1000]))
    return draw(st.sampled_from(["(" * n + term + ")" * n, "-" * 2 * n + term]))


@st.composite
def alg_lines(draw):
    """A presentation that mostly compiles: a pure power of each variable
    (times a unit now and then), monomial or binomial relations without
    constant terms, the top monomial of the box as orientation, and the
    augmentation at 0."""
    names = NAMES[: draw(st.integers(1, 3))]
    lines = [draw(st.sampled_from(["field Q", "field F 2", "field F 7", "field F 101"])),
             "vars " + " ".join(names)]
    top = []
    for v in names:
        e = draw(st.integers(1, 4))
        tail = draw(st.sampled_from(["", "", f" - {v}^{e + 1}", " - 2*" + v]))
        lines.append(f"rel {draw(nested(v))}^{e}" + tail)
        top += [f"{v}^{e - 1}"] if e > 1 else []
    for _ in range(draw(st.integers(0, 2))):
        m1, m2 = draw(monomials(names)), draw(monomials(names))
        if "1" not in (m1, m2):
            lines.append(f"rel {m1}" + draw(st.sampled_from(["", f" - {m2}", f" + 1/2*{m2}"])))
    if draw(st.integers(0, 3)):
        lines.append(f"orient {'*'.join(top) or '1'} : {draw(st.sampled_from(['1', '2', '1/3']))}")
    if draw(st.integers(0, 3)):
        lines.append("aug " + ", ".join(f"{v} = 0" for v in names))
    return lines


def tokens_of(lines):
    out = []
    for line in lines:
        out += line.replace("^", " ^ ").replace("*", " * ").split(" ") + ["\n"]
    return [t for t in out if t]


# more digits than int() converts by default (4300)
LONG = "1" * 5000
TOKENS = st.sampled_from(
    ["field", "Q", "F", "vars", "rel", "orient", "aug", *NAMES, "w", "0", "1", "3", "4",
     "2/3", "1/0", LONG, f"1/{LONG}", "+", "-", "*", "^", ":", "=", ",", "(", ")", "\n",
     *STRANGE]
)


@st.composite
def alg_texts(draw):
    toks = tokens_of(draw(alg_lines()))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        op = draw(st.sampled_from(["insert", "delete", "replace", "digit"]))
        k = draw(st.integers(0, len(toks) - 1))
        if op == "insert":
            toks.insert(k, draw(TOKENS))
        elif op == "delete":
            del toks[k]
        elif op == "replace":
            toks[k] = draw(TOKENS)
        else:  # a literal or an exponent in other digits, or in too many
            numbers = [i for i, t in enumerate(toks) if t.isdecimal()]
            if numbers:
                toks[draw(st.sampled_from(numbers))] = draw(st.sampled_from((*DIGITS, LONG)))
    return " ".join(toks).replace(" \n ", "\n")


ALG_COMMANDS = (
    ["check"],
    ["orient", "--trials", "2", "--symbolic-max-dim", "2"],
    ["socle"],
    ["consum", "{f}"],
    ["rees"],
    ["homotopy", "--which", "const"],
    ["homotopy", "--which", "mv", "--at", "t=1"],
    ["degenerate"],
    ["tensor", "--check", "1generic,commute"],
    ["witt"],
)


@FUZZ
@given(alg_texts(), st.sampled_from(ALG_COMMANDS))
def test_alg_texts_end_in_one_json_report(capsys, workdir, text, command):
    f = workdir / "fuzz.alg"
    f.write_text(text, encoding="utf-8")
    name, *rest = command
    check_report(capsys, [name, str(f), *(a.format(f=f) for a in rest)])


@FUZZ
@given(st.sampled_from(["cw", "points-degenerate"]), st.integers(-1, 3),
       st.sampled_from([[], ["--field", "7"], ["--seed", "1"]]))
def test_q_commands_end_in_one_json_report(capsys, name, q, extra):
    check_report(capsys, [name, "--q", str(q), *extra])


# ---------------------------------------------------------------------------
# form files

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False, width=16)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
ENTRIES = st.sampled_from(["0", "1", "-1", "1/2", "2", "3 mod 7", "1 mod 2", "x", ""])


@st.composite
def form_files(draw):
    n = draw(st.integers(0, 4))
    gram = [[draw(JSON) if draw(st.integers(0, 5)) == 0 else draw(ENTRIES) for _ in range(n)]
            for _ in range(n)]
    char = draw(st.sampled_from([0, 2, 7, 7.0]))
    field = {"kind": "Rationals" if char == 0 else "PrimeField", "characteristic": char}
    data = {"field": field, "gram": gram}
    for key, parent in (("gram", data), ("field", data), ("characteristic", field), ("kind", field)):
        if draw(st.integers(0, 7)) == 0:
            parent[key] = draw(JSON)
    return draw(JSON) if draw(st.integers(0, 9)) == 0 else data


@FUZZ
@given(form_files(), st.sampled_from(["1,0", "1,1", "0,1;1,0", "1", "1/2,x", "1 mod 7,0"]))
def test_form_files_end_in_one_json_report(capsys, workdir, data, subspace):
    f = workdir / "fuzz.form.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    check_report(capsys, ["embed-hyp", str(f)])
    check_report(capsys, ["gro", str(f), "--subspace", subspace])
