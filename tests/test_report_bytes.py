"""CLI report bytes on the G-fat points A_2 and A_3 and on the robber
family, over QQ and F_7, of ``points-degenerate``, and of help and usage
errors.

Each case runs one command through ``run_command`` and compares the exit
code and the sha256 of stdout with values recorded before the structure
table checks were rewritten as products of multiplication matrices (the
``robber`` cases and the ``homotopy --at t=1`` fibers: before the k[t]
family checks moved to raw coefficient lists).  A changed verdict, number,
label order or error message changes a digest.

The help and usage cases hash exit code, stdout and stderr together.  Their
digests were recorded with Python 3.11 and an 80-column terminal, before
``run_command`` built only the parser of the command it runs; argparse
words its help and errors differently in other Python versions, so there
the same argv are compared with a parse by the full parser instead.
"""

import argparse
import hashlib
import json
import sys

import pytest

from gorlab.cli import build_parser, run_command


def aq_text(field: str, q: int) -> str:
    """The .alg presentation of A_q, oriented by y1^2 and augmented at 0."""
    ys = [f"y{i + 1}" for i in range(q)]
    lines = [f"field {field}", "vars " + " ".join(ys)]
    for i in range(q):
        for j in range(i + 1, q):
            lines.append(f"rel {ys[i]}*{ys[j]}")
            lines.append(f"rel {ys[i]}^2 - {ys[j]}^2")
    lines.append("rel y1^3")
    lines.append("orient y1^2 : 1")
    lines.append("aug " + ", ".join(f"{y} = 0" for y in ys))
    return "\n".join(lines) + "\n"


# argv templates; {f} is the .alg file
COMMANDS = {
    "check": ("check", "{f}"),
    "socle": ("socle", "{f}"),
    "consum": ("consum", "{f}", "{f}"),
    "rees": ("rees", "{f}"),
    "homotopy-const": ("homotopy", "{f}", "--which", "const"),
    "homotopy-mv": ("homotopy", "{f}", "--which", "mv"),
    "homotopy-mv-at1": ("homotopy", "{f}", "--which", "mv", "--at", "t=1"),
    "degenerate": ("degenerate", "{f}"),
    "tensor": ("tensor", "{f}", "--check", "1generic,commute"),
    "witt": ("witt", "{f}"),
}

# (field, q, command) -> (exit code, sha256 of stdout)
DIGESTS = {
    ("Q", 2, "check"): (0, "b454784c6615deddf428adffad10c52afac952a8639723eb4ef8c0157440373f"),
    ("Q", 2, "socle"): (0, "b8528ec204657fecd2cb235cfd12412ff80d2f0ff919d3e35efbb49c08f7d75d"),
    ("Q", 2, "consum"): (0, "cdcd80d0e2a70cd4369cd12c209fc92f2b19d19456ddd0cb73ed2b4a33c1f1ec"),
    ("Q", 2, "rees"): (0, "b01f59c477f6c5c939b482cba3f6f55c600d2459f5f2fcddec348d3741fa1cc6"),
    ("Q", 2, "homotopy-const"): (0, "5a4c12fe52cea5edba55bb0f0de26d79054463d81e2a2f8ed8989d6ca10ab48d"),
    ("Q", 2, "homotopy-mv"): (0, "03f0f6f1ebbee75360e460b94062c559f91c8d9e1257e2155f77dc7fd9c312d9"),
    ("Q", 2, "homotopy-mv-at1"): (0, "eff8a7197a8af6e2d043d97ec702aa6b8e2600c610fcebe5ff206235667ad0f1"),
    ("Q", 2, "degenerate"): (0, "587e893809b2d556a1a16e43201c83ff560e32e4162bbc4a195b120aeb130c82"),
    ("Q", 2, "tensor"): (0, "b199c6cdc548e6066fdc5b92dfd97805e744dc0776ca1fc53991eba33dfffc7d"),
    ("Q", 2, "witt"): (0, "8f4eb6c5dd8d47b2606df0be74433210e4e084709fba3181dae16ff3e9ca10ff"),
    ("Q", 3, "check"): (0, "f3c868e2fdec181556c5c6ae40fa60646f9c461c84259e2e5ec2f6dc63b04a10"),
    ("Q", 3, "socle"): (0, "d413b17efa2e0cc2311128719052faab48b39660335ead9b7dbaf1568e5fb535"),
    ("Q", 3, "consum"): (0, "54078132111a298ccccf28c390111389f520d606bdd663fad0fca0553ccf3684"),
    ("Q", 3, "rees"): (0, "21d99328d03a82f3a99529609772205765a7f4317d4b4f2d47ddf10f7555595e"),
    ("Q", 3, "homotopy-const"): (0, "e4b6e500c2eeff2f855aa4bf0188932fe889bc7528315d7c25ee35c3ff75fb9c"),
    ("Q", 3, "homotopy-mv"): (0, "b5c4465ce37dcaf56dee60cdaa50290dc4961c44b96b986d726998e899097369"),
    ("Q", 3, "homotopy-mv-at1"): (0, "2af51795a76763a9b1445621b39bcfcbe2e65a051063d2ffaa837407f2791abe"),
    ("Q", 3, "degenerate"): (0, "9b02cff7a2023dfa8bf8001aab5c5975992f5eab6eb8a95271fa65a8f2dacfdb"),
    ("Q", 3, "tensor"): (0, "08fd80268bbf4f2af2e180faa4860ca1b5bc05b1df4e45102599955ec7b42b8a"),
    ("Q", 3, "witt"): (0, "3a69e118b7f3abe84b5b8a8c74edff5a7989f2b3c7f8aac4bfdc0614f15555d1"),
    ("F 7", 2, "check"): (0, "361426af7f9df9234b3c39b2f767cb8b99e209aa80f55f07273aadcd2a34294a"),
    ("F 7", 2, "socle"): (0, "fa95ce2da7c7e6f16372e0be6007945449daa0144902e3d3f1541b5e224ff929"),
    ("F 7", 2, "consum"): (0, "c382b5908f6d29ade8a665cc71774fdb9d8c642c7c919b8a68a416c5f63c095f"),
    ("F 7", 2, "rees"): (0, "5f65759a991bcc0d3a24c6ed05ac6808b5f53b833e59339a006665b33594ef1f"),
    ("F 7", 2, "homotopy-const"): (0, "5249883b7b9d6307942d176746c1d7637623f22fdda1de7376d4f96bcd8fa895"),
    ("F 7", 2, "homotopy-mv"): (0, "e7810e8646f11e890de010fef52c2d95ce28dde9c664b0502658e9c0d556f0ee"),
    ("F 7", 2, "homotopy-mv-at1"): (0, "e2333fc1ad6a0b586521024a94e995c49d7f4ee595d1f361747f9389ed6536eb"),
    ("F 7", 2, "degenerate"): (0, "c383d94bf91d9897dbe10f614e836688eb240d9c49d23d262dfc8f61e6b09040"),
    ("F 7", 2, "tensor"): (0, "910e3d7728a733ec90ef1149405dec1c76f6a8deb9e1d200b8895f262a239455"),
    ("F 7", 2, "witt"): (0, "a2da17a839a13661575575d93fc726dbd8bd5dbadd5775113c892319bc899778"),
    ("F 7", 3, "check"): (0, "993362f2a8c0e7bde2be4c56ceba4128f60116215c9df430fd51a14233d20610"),
    ("F 7", 3, "socle"): (0, "18f7d37ded84a97fb1ff7f1cbe9959f36cedf48996734c87471d05a8a0304742"),
    ("F 7", 3, "consum"): (0, "b9d22ed052bbd1ef899f4d52c5c49695975b6b9d854717f34a369d8aebb145b0"),
    ("F 7", 3, "rees"): (0, "76370462fb1047920a0c4ee2a4f30b6886d2e71c6b54034e5281ac47ed7e71df"),
    ("F 7", 3, "homotopy-const"): (0, "1ee8cb652299a41603d5f07ee3461ee5d7584e573cb1b3cb5d9308a1ce235986"),
    ("F 7", 3, "homotopy-mv"): (0, "a63d880aec8f50cdf8a5daa1518745230dbf13e355b62a6b4fd2003fb93a7cec"),
    ("F 7", 3, "homotopy-mv-at1"): (0, "011ca2845d99b7a92b6185f80ad7987d39f1d5d4028cc8f84b8a8c8d5469575a"),
    ("F 7", 3, "degenerate"): (0, "fafdf6d6a584cb769214a680b4dead7fc35fcc5a04535fd199484d9546a16570"),
    ("F 7", 3, "tensor"): (0, "4e3388d4417deb46d058d4f8ed62348a414dbc318fdfaef22b2e0a647ef93d19"),
    ("F 7", 3, "witt"): (0, "ed6ad1434f4df4b7818c29a30faba51201c620718711cee3268080533431da1e"),
}


# robber --field F [--at t=0]: (field argument, --at value) -> (exit code, sha256)
ROBBER_DIGESTS = {
    ("Q", None): (0, "e00b394301b9be1134a2d02ac274e1a93c862b3c56ea1839c21c77379cd45fac"),
    ("Q", "t=0"): (0, "fd3f55131aca893114e878ba38ecb7056a29bd9cd9b555a0b2706f2bd3b3ed10"),
    ("7", None): (0, "9d5efc596c81114a0fd103303b6bd14038391dfd2bbc4ab3924fd6be8420b307"),
    ("7", "t=0"): (0, "e65d9f8d20438a6749d6bfa1f92a0e078d6be1ce6b130dfdcf0d89beed5ca583"),
}


# points-degenerate --q Q --seed S: (q, seed) -> (exit code, sha256), recorded
# while the limit still came from the kernel, initial ideal and Buchberger;
# seed 16 at q = 1 samples a point twice
POINTS_DIGESTS = {
    (1, 0): (0, "023850266b092736ddad39a03ab177f80960c0d66838f7990ba1b4bb0f811010"),
    (1, 16): (1, "87bdf4ea46415d5710a6b4342468a040c82f4ec91a66b28d5fc98c5be4398aaf"),
    (2, 0): (0, "3167f4478e6b311f8fa14cbc53c767f99df4e9150f608c7b028e2128dd2e8bb6"),
    (3, 0): (0, "a932bfb608ca3e60faeafbff3111fb94563a4c6b64eccc0cdfd643c36d55c70a"),
    (8, 0): (0, "2f2ea500bdb8e81094dc17059812f6fad31df882c967f3a0b45dc55ba787c5a0"),
}


@pytest.mark.parametrize("q,seed", sorted(POINTS_DIGESTS))
def test_points_degenerate_report_bytes(capsys, q, seed):
    argv = ["points-degenerate", "--q", str(q), "--seed", str(seed)]
    assert digest(capsys, argv) == POINTS_DIGESTS[q, seed]


def digest(capsys, argv):
    code = run_command(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def report(tmp_path, capsys, field, q, command):
    path = tmp_path / f"a{q}.alg"
    path.write_text(aq_text(field, q))
    return digest(capsys, [a.format(f=path) for a in COMMANDS[command]])


@pytest.mark.parametrize("field,q,command", sorted(DIGESTS))
def test_report_bytes(tmp_path, capsys, field, q, command):
    assert report(tmp_path, capsys, field, q, command) == DIGESTS[field, q, command]


def test_every_case_is_pinned():
    cases = {(f, q, c) for f in ("Q", "F 7") for q in (2, 3) for c in COMMANDS}
    assert set(DIGESTS) == cases


# connected sums and homotopies on small .alg files, over F_2, F_3 and QQ with
# fractions (x3.alg and frac.alg make asymmetric pairs): argv -> (exit code,
# sha256), recorded while the connected-sum core still worked on boxed values
SUM_FILES = {
    "f2.alg": "field F 2\nvars x y\nrel x^2 - y^2\nrel x*y\norient x^2 : 1\naug x = 0, y = 0\n",
    "f3.alg": "field F 3\nvars x y\nrel x^2 - y^2\nrel x*y\norient x^2 : 1\naug x = 0, y = 0\n",
    "frac.alg": "field Q\nvars x y\nrel x^2 - 3/2*y^2\nrel x*y\norient x^2 : 2/3\naug x = 0, y = 0\n",
    "x3.alg": "field Q\nvars x\nrel x^3\norient x^2 : 5\naug x = 0\n",
}
SUM_DIGESTS = {
    ("consum", "f2.alg", "f2.alg"):
        (0, "6f1a3b2a7a1d853a7434ce045d86e2533ebbd667fe1389b0a52d13354868a4f8"),
    ("consum", "f3.alg", "f3.alg"):
        (0, "83b548f2bf160f3f18ce19e329b613072a39a8535221d27bf250cb5bc77f8f41"),
    ("consum", "frac.alg", "x3.alg"):
        (0, "612be3e52f4ab62df75d78ca88e846b2a36e6e947a0748e1461a5c04e31162ea"),
    ("consum", "x3.alg", "frac.alg"):
        (0, "69e97f41f3bffe534ddf6dbe6478d61d70def4536de3c0bdaf9643ad5c8e461b"),
    ("homotopy", "f2.alg", "--which", "mv"):
        (0, "506bb2db560f9f6e8bb897dce2e562ad16579b2588ee20696ca0c4775c175f8d"),
    ("homotopy", "f3.alg", "--which", "const", "--at", "t=0"):
        (0, "f4c4c5fa3b8352d779265cef952f805217b8c8b4f3207411de1d5d816e151b33"),
    ("homotopy", "x3.alg", "--which", "mv", "--at", "t=2"):
        (0, "7b9ddfe95b04c6ff5712a24a9e98d73acaa349247eb6aff8c65a019b5a91768a"),
}


@pytest.mark.parametrize("argv", sorted(SUM_DIGESTS), ids=" ".join)
def test_sum_report_bytes(tmp_path, capsys, argv):
    for name, text in SUM_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in SUM_FILES else a for a in argv]
    assert digest(capsys, argv) == SUM_DIGESTS[tuple(a.rsplit("/", 1)[-1] for a in argv)]


# the consumers of B_phi on the same files: argv -> (exit code, sha256),
# recorded while socle solves, the split and the Rees family still ran on the
# boxed Gram matrix.  frac.alg's 3/2 and 2/3 vanish mod 2 and 3, so the F_2
# and F_3 cases read f2.alg and f3.alg
PAIRING_DIGESTS = {
    ("rees", "frac.alg"):
        (0, "8a47bf5829393fa906ae08bc9e17045905944c596fbe7034732495abbe2e9d9a"),
    ("socle", "frac.alg"):
        (0, "7b566f31dacae3d72c9baf2651b1154dc8791220810fb965020d6489b85b0a1a"),
    ("degenerate", "frac.alg"):
        (0, "9244a16d1f5a4e082a01c89e12b4fbbe1b025b11f8c09062c3e6cb3b5bf28134"),
    ("check", "frac.alg"):
        (0, "a47a80812d75a4778e666f55f53baf644c82d3054aa012768a8a11dcb7d7d1a2"),
    ("homotopy", "frac.alg", "--which", "const", "--at", "t=1"):
        (0, "b7f938ff1ccd3402f55a6b86522244c0cd520fd60be3ef1d60ae6eb6ad04ad7c"),
    ("rees", "f2.alg"):
        (0, "b34f015b7eb72678c0af75986eb094cd1a5feb1355e0b739ac7b29e56e1e902f"),
    ("socle", "f2.alg"):
        (0, "c89970c24079e6e76b163d009cc9bd661cd3d5a6c5c4fb7361d2724f0414642d"),
    ("degenerate", "f2.alg"):
        (0, "44b52df2857a9f59ff23bb308f2d3039cd9b137ca591b44f0febf8935534ef6d"),
    ("check", "f2.alg"):
        (0, "58b390e48d6440dc83b751871f140f6898ec5d45a73e7d57230ed0e84a425ace"),
    ("homotopy", "f2.alg", "--which", "const", "--at", "t=1"):
        (0, "341978cad8c1a5c48682819359f938af726f46929a741943a35120d7ca9b4d53"),
    ("rees", "f3.alg"):
        (0, "3a997370dc4761c699800bc619904e1bbd3c3a3edf3c87ad1d52735ba88e1219"),
    ("socle", "f3.alg"):
        (0, "2af772f8aa6c80138f029d265fde6dcf39461635d33cc27f630d00974f198fc2"),
    ("degenerate", "f3.alg"):
        (0, "f0d85365fa94e417ac17f300397e8b1df9e98e2a99e066eaa768430b02b52b34"),
    ("check", "f3.alg"):
        (0, "866c057823f62c62e3daec44b0ab41cef15b96048fdc8bb48279215a1770ac0e"),
    ("homotopy", "f3.alg", "--which", "const", "--at", "t=1"):
        (0, "846fc57c4c543f9d25d969dd89e94f44aa1040b343e0cd2eb377286955d8aee2"),
}


@pytest.mark.parametrize("argv", sorted(PAIRING_DIGESTS), ids=" ".join)
def test_pairing_report_bytes(tmp_path, capsys, argv):
    for name, text in SUM_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in SUM_FILES else a for a in argv]
    assert digest(capsys, argv) == PAIRING_DIGESTS[tuple(a.rsplit("/", 1)[-1] for a in argv)]


# witt on an orient clause whose b_phi is degenerate: .alg text -> (exit code,
# sha256), recorded while witt took the determinant of B_phi twice
DEGENERATE_WITT_DIGESTS = {
    "field Q\nvars x\nrel x^2\norient 1 : 1\n":
        (1, "91c3edd8370a0c4787e69c1bcbd82f7400529a00f0c495c776bc88280da33473"),
    "field F 7\nvars x y\nrel x^2 - y^2\nrel x*y\norient 1 : 2, x : 1\n":
        (1, "91c3edd8370a0c4787e69c1bcbd82f7400529a00f0c495c776bc88280da33473"),
}


@pytest.mark.parametrize("text", sorted(DEGENERATE_WITT_DIGESTS))
def test_degenerate_witt_report_bytes(tmp_path, capsys, text):
    path = tmp_path / "degenerate.alg"
    path.write_text(text)
    assert digest(capsys, ["witt", str(path)]) == DEGENERATE_WITT_DIGESTS[text]


@pytest.mark.parametrize("field", ["Q", "F 7"])
def test_witt_takes_one_determinant(tmp_path, capsys, monkeypatch, field):
    from gorlab import linalg

    calls, det = [], linalg.det
    monkeypatch.setattr(linalg, "det", lambda *a: calls.append(a) or det(*a))
    path = tmp_path / "a2.alg"
    path.write_text(aq_text(field, 2))
    assert digest(capsys, ["witt", str(path)]) == DIGESTS[field, 2, "witt"]
    assert len(calls) == 1


@pytest.mark.parametrize("field,at", sorted(ROBBER_DIGESTS, key=str))
def test_robber_report_bytes(capsys, field, at):
    argv = ["robber", "--field", field] + (["--at", at] if at else [])
    assert digest(capsys, argv) == ROBBER_DIGESTS[field, at]


# help and usage argv -> sha256 of f"{exit code}\n{stdout}\0{stderr}"
USAGE_DIGESTS = {
    (): "61bcdaf877359508b1c58a144e0a0ca705ff8b51706930058b8c26e7f2039c94",
    ("-h",): "663be454aa1308f850aa1fbbaa017de59bf6989f80255665f0a663affd9b0f2e",
    ("--pretty",): "61bcdaf877359508b1c58a144e0a0ca705ff8b51706930058b8c26e7f2039c94",
    ("nope",): "27fe972bfd6833d7c4fa27c752bf1a7ee1fb9244f93adb3125d206ccf59babcd",
    ("che",): "6f4b49a5d469098c87f32f5d6bdacd845c9da7d6f2f55cee0961eb6f5e5a0aa5",
    ("check",): "330a8bce80c79b7f937e0e523ac7d0f7383e66fa46787d7dd02bc88f3ea37fa0",
    ("check", "-h"): "54713f10e15d2d41d591754f4d3ea89062d0d266e12d4839dbd4263a0d486577",
    ("check", "a", "b"): "88f0d9f2d4b44e44d8ceaa2f449063ec3eaf121714b50f49a45ebad6885b0c54",
    ("orient", "x.alg", "--trials", "-1"): "e8b9960d60b529e7447b0e9ab703f0d36618ff0599c4195dc139421ddf1c1fec",
    ("orient", "x.alg", "--trials", "abc"): "2ed0dbab1532483a079f9eca9a3fb9a9116f55190013abcb243505cc4358753c",
    ("homotopy", "x.alg"): "740000e2c6da7b456efb0c67544c4bd9d252aac349faaf1ab879862624a9f63e",
    ("homotopy", "x.alg", "--which", "zz"): "4df9bd4146aee5e0ddd33078c38d249263c56a61ddef66e3b3d61d31183fc62f",
    ("cw",): "25247df8619775572cb2ee45ebdd45f98cf7fe013e267131134acbc3ae262305",
    ("gro", "-h"): "c8edcb50ff12b1623237edc6d45e7e34eab1fe2974e79af8aa94433a915a157a",
    ("points-degenerate", "--q", "x"): "5d6e35dfe162a8d1dc91f25da00578f0154d7b06906b1c8dc3bc648dd7abfb39",
}

ALL_COMMANDS = (
    "check", "orient", "socle", "consum", "rees", "robber", "homotopy",
    "degenerate", "points-degenerate", "tensor", "cw", "witt", "embed-hyp", "gro",
)


def usage_blob(capsys, code):
    out = capsys.readouterr()
    return f"{code}\n{out.out}\0{out.err}"


def full_parser_blob(capsys, argv):
    """What a parse of argv by the parser with every subparser prints."""
    with pytest.raises(SystemExit) as ex:
        build_parser().parse_args(argv)
    return usage_blob(capsys, int(ex.value.code or 0))


@pytest.mark.parametrize("argv", sorted(USAGE_DIGESTS))
def test_usage_and_help_bytes(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    blob = usage_blob(capsys, run_command(list(argv)))
    if sys.version_info[:2] == (3, 11):
        assert hashlib.sha256(blob.encode()).hexdigest() == USAGE_DIGESTS[argv]
    assert blob == full_parser_blob(capsys, list(argv))


def count_add_parser(monkeypatch):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kw):
        names.append(name)
        return add_parser(self, name, **kw)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return names


def count_add_argument(monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *flags, **kw):
        added.append((self.prog, flags[0]))
        return add_argument(self, *flags, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    return added


def test_a_command_builds_only_its_subparser(monkeypatch, tmp_path, capsys):
    """A named command gets one parser, with its own arguments only: no
    subparsers, and no other command's arguments."""
    path = tmp_path / "a2.alg"
    path.write_text(aq_text("Q", 2))
    names = count_add_parser(monkeypatch)
    added = count_add_argument(monkeypatch)
    assert run_command(["check", str(path)]) == 0
    assert names == []
    assert added == [("gorlab check", "-h"), ("gorlab check", "--pretty"),
                     ("gorlab check", "file")]


@pytest.mark.parametrize("argv", [["-h"], ["nope"]])
def test_help_and_unknown_command_list_every_command(monkeypatch, capsys, argv):
    names = count_add_parser(monkeypatch)
    run_command(argv)
    assert tuple(names) == ALL_COMMANDS
    listed = capsys.readouterr().out.replace("'", "").replace(", ", ",")
    assert ",".join(ALL_COMMANDS) in listed


# argv for every command that stop in the parser, from the table the parsers
# are built from: help, missing and extra arguments, bad choices and types,
# unknown, ambiguous and abbreviated options, and "--"
EQUIVALENT_ARGV = [
    *[[name, "-h"] for name in ALL_COMMANDS],
    *[[name, "--help", "x"] for name in ALL_COMMANDS],
    *[[name, "--nope"] for name in ALL_COMMANDS],
    *[[name, "a", "b", "c"] for name in ALL_COMMANDS],
    *[[name, "--pretty", "--prett", "--bad"] for name in ALL_COMMANDS],
    ["check"], ["check", "--"], ["check", "--", "a", "b"], ["check", "-", "--x"],
    ["consum", "a"], ["socle", "--pretty"],
    ["orient", "x.alg", "--s", "3"], ["orient", "x.alg", "--trials"],
    ["orient", "x.alg", "--seed", "1.5"], ["orient", "x.alg", "--symbolic-max-dim", "-2"],
    ["homotopy", "x.alg", "--which"], ["homotopy", "x.alg", "--wh", "co"],
    ["homotopy", "x.alg", "--which", "const", "--which", "nope"],
    ["points-degenerate"], ["points-degenerate", "--q"], ["points-degenerate", "--q", "1e3"],
    ["points-degenerate", "--", "--q", "2"], ["cw", "--field"], ["cw", "--q", "x", "--field", "7"],
    ["robber", "--at"], ["robber", "--field", "Q", "extra"], ["tensor", "--check"],
    ["gro", "f.form"], ["gro", "--subspace", "1,0"], ["gro", "f.form", "--subspace", "-1,0"],
    ["embed-hyp"],
]

# argv that parse: (argv, the arguments the command's handler receives)
PARSED_ARGV = [
    ["check", "--", "x.alg"],
    ["check", "x.alg", "--pre"],
    ["orient", "x.alg", "--sym", "3", "--tri", "0", "--see", "-4"],
    ["orient", "--pretty", "x.alg", "--seed=7"],
    ["homotopy", "x.alg", "--wh", "mv", "--at", "t=1/2"],
    ["points-degenerate", "--q", "3", "--seed", "2"],
    ["points-degenerate", "--q=-3"],
    ["cw", "--q", "2", "--f", "7"],
    ["robber", "--at=t=0", "--field", "Q"],
    ["tensor", "x.alg", "--check", ""],
    ["consum", "a.alg", "--", "b.alg"],
    ["gro", "f.form", "--subspace", "1,-1"],
    ["robber", "--pretty", "--pre"],
]


def test_the_argv_cover_every_command():
    for table in (EQUIVALENT_ARGV, PARSED_ARGV):
        assert {argv[0] for argv in table} <= set(ALL_COMMANDS)
    assert {argv[0] for argv in EQUIVALENT_ARGV} == set(ALL_COMMANDS)


@pytest.mark.parametrize("argv", EQUIVALENT_ARGV, ids=" ".join)
def test_a_command_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    """run_command parses argv naming a command with that command's parser
    alone: its exit code, stdout and stderr are the full parser's, byte for
    byte."""
    monkeypatch.setenv("COLUMNS", "80")
    blob = usage_blob(capsys, run_command(list(argv)))
    assert blob == full_parser_blob(capsys, list(argv))
    assert blob.startswith(("0\nusage: gorlab ", '2\n{"kind":"UsageError"'))


@pytest.mark.parametrize("argv", PARSED_ARGV, ids=" ".join)
def test_a_command_parser_parses_what_the_full_parser_parses(monkeypatch, capsys, argv):
    """The handler gets the arguments the full parser would give it."""
    from gorlab import cli

    received = []
    fn, *arguments = cli._COMMANDS[argv[0]]
    monkeypatch.setitem(cli._COMMANDS, argv[0],
                        (lambda args: received.append(vars(args)) or {}, *arguments))
    assert run_command(list(argv)) == 0
    assert json.loads(capsys.readouterr().out) == {"schema": "gorlab/1"}
    full = vars(build_parser().parse_args(list(argv)))
    assert full.pop("cmd") == argv[0]
    assert received == [full]
