"""Definition-file grammar and the command-line surface."""

import json
import os
import re
import subprocess
import sys

import pytest

from fiberlab import (
    CapError,
    Caps,
    GrammarError,
    RingMismatchError,
    betti_table,
    cli,
    component_ideal,
    koszul,
    lang,
    tor_dimensions,
)
from fiberlab.lang import eval_expression, load_definitions
from fiberlab.scenarios import run_scenario

from conftest import run_fiberlab

APPENDIX = """
# the special 8-variable ideal
ring R = [a,b,c,d,x,y,z,t];
I = ideal(R; a^2, b^2, c^2, d^2, a*b*x, c*d*x, a*c*y, b*d*y, a*d*z, b*c*z, c*d*y*z*t);
q = ideal(R; a, b, c, d);
"""

PAIR = """
ring A = [x,y];
ring B = [u];
I = ideal(A; x^2, x*y);
J = ideal(B; u^2);
"""


def test_definitions_and_expressions():
    env = load_definitions(APPENDIX)
    assert eval_expression(env, "I^3 : (x*y*z)") == eval_expression(env, "q^6")
    assert len(eval_expression(env, "q^6").gens) == 84
    assert str(eval_expression(env, "component(ideal(R; x^2, y^3), 2)")) == "x^2"
    assert str(eval_expression(env, "dstar(ideal(R; x^2*y))")) == "x^2, x*y"
    assert eval_expression(env, "ideal(R;)").is_zero()
    assert eval_expression(env, "ideal(R; 1)").is_unit()


def test_tensor_and_fiber_expressions():
    env = load_definitions(PAIR + "tensor T = A (*) B;\nF = fiber(I, J);\n")
    fiber = eval_expression(env, "F")
    assert str(fiber) == "x^2, x*y, x*u, y*u, u^2"
    # cross-ring operands lift into the declared tensor ring
    assert str(eval_expression(env, "I + J")) == "x^2, x*y, u^2"
    assert str(eval_expression(env, "maxideal(A) * maxideal(B)")) == "x*u, y*u"
    assert eval_expression(env, "F & maxideal(A) * maxideal(B)") == eval_expression(
        env, "maxideal(A) * maxideal(B)"
    )


def test_lifting_passes_on_errors_other_than_a_missing_block(monkeypatch):
    env = load_definitions(PAIR + "tensor T = A (*) B;\n")
    with pytest.raises(RingMismatchError):  # no declared ring has both as blocks
        eval_expression(load_definitions(PAIR), "I + J")

    def broken(ideal, target):
        raise RuntimeError("a bug in tensor_embed")

    monkeypatch.setattr(lang, "tensor_embed", broken)
    with pytest.raises(RuntimeError, match="a bug in tensor_embed"):
        eval_expression(env, "I + J")


def test_bare_variables_are_principal_ideals():
    env = load_definitions("ring R = [x,y];\n")
    assert str(eval_expression(env, "x^2 + x*y")) == "x^2, x*y"
    assert str(eval_expression(env, "(x + y)^2")) == "x^2, x*y, y^2"


def test_grammar_errors_carry_positions():
    with pytest.raises(GrammarError):
        load_definitions("ring R = [a,a];")
    with pytest.raises(GrammarError):
        load_definitions("ring R = [x]\n")  # missing semicolon
    with pytest.raises(GrammarError):
        load_definitions("ring R = [x];\nI = ideal(R; x$);")
    env = load_definitions("ring R = [x];")
    with pytest.raises(GrammarError):
        eval_expression(env, "I + 1")
    with pytest.raises(GrammarError):
        eval_expression(env, "x^")


def test_monomial_errors_report_their_offset_in_the_file():
    text = "ring R = [x,y];\nJ = ideal(R; x^2);\nI = ideal(R; 1^2*x);\n"
    with pytest.raises(GrammarError) as info:
        load_definitions(text)
    assert info.value.position == text.index("1^2") + 1
    text = "ring R = [x,y];\n# x*q\nI = ideal(R; x*q);\n"
    with pytest.raises(GrammarError) as info:
        load_definitions(text)
    assert info.value.position == text.rindex("q")


def test_unit_factor_anywhere_in_definition_files():
    # one monomial rule for files and parse_monomial: 1 is a factor anywhere
    env = load_definitions("ring R = [x,y];\nI = ideal(R; x*1, 1*y*1);\nU = ideal(R; 1*1);\n")
    assert str(env.ideal("I")) == "x, y"
    assert env.ideal("U").is_unit()


def test_rebinding_rejected():
    with pytest.raises(GrammarError):
        load_definitions("ring R = [x];\nR = ideal(R; x);")


def run_cli(*argv: str, **env: str) -> subprocess.CompletedProcess:
    return run_fiberlab(*argv, env=env)


@pytest.fixture(scope="module")
def defs_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("defs") / "defs.fl"
    path.write_text(APPENDIX)
    return str(path)


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pair") / "pair.fl"
    path.write_text(PAIR)
    return str(path)


def test_cli_eval_colon_count(defs_file):
    out = run_cli("eval", defs_file, "I^3 : (x*y*z)")
    assert out.returncode == 0
    assert len(out.stdout.strip().split(", ")) == 84


def test_cli_eval_maxideal_square(pair_file):
    out = run_cli("eval", pair_file, "maxideal(A)^2")
    assert out.returncode == 0
    assert out.stdout.strip() == "x^2, x*y, y^2"


def test_cli_betti_json_schema(pair_file):
    out = run_cli("--json", "betti", pair_file, "I")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["char"] == 0
    assert {"i": 1, "j": 3, "dim": 1} in payload["entries"]
    assert {"i": 0, "b": [2, 0], "dim": 1} in payload["multigraded"]


def test_cli_invariants_json(pair_file):
    out = run_cli("invariants", pair_file, "I", "--json")
    payload = json.loads(out.stdout)
    assert payload == {
        "reg": 2, "pdim": 1, "depth": 1, "t0": 2, "componentwiseLinear": True,
    }


def test_cli_char_agreement(pair_file):
    a = run_cli("--json", "--char", "0", "betti", pair_file, "I")
    b = run_cli("--json", "--char", "32003", "betti", pair_file, "I")
    pa, pb = json.loads(a.stdout), json.loads(b.stdout)
    assert pa["entries"] == pb["entries"]
    assert pa["multigraded"] == pb["multigraded"]


def test_cli_torvanish_schema(pair_file):
    out = run_cli("torvanish", pair_file, "I", "I")
    payload = json.loads(out.stdout)
    assert payload == {"vanishing": False, "witness": {"i": 0, "j": 2}}


def test_cli_verify_exit_codes(pair_file):
    ok = run_cli("verify", "thm-6.1", "--input", pair_file, "--I", "I", "--J", "J",
                 "--s", "2", "--stable-json")
    assert ok.returncode == 0
    report = json.loads(ok.stdout)
    assert report["verdict"] == "pass"
    assert report["computed"]["depthFs"] == 1
    # qualified names are accepted
    ok2 = run_cli("verify", "thm-5.1", "--input", pair_file, "--I", "pair:I",
                  "--J", "pair:J", "--s", "2", "--stable-json")
    assert ok2.returncode == 0


def test_cli_verify_negative_case(tmp_path):
    path = tmp_path / "r55.fl"
    path.write_text(
        "ring R = [a,b,c];\nring S = [x];\n"
        "I = ideal(R; a^4, a^3*b, a*b^3, b^4, a^2*b^2*c^4);\n"
        "J = ideal(S; x^4);\n"
    )
    out = run_cli("verify", "cor-5.2", "--input", str(path), "--I", "I", "--J", "J",
                  "--s", "2", "--stable-json")
    assert out.returncode == 1  # the equigenerated shortcut fails here, as predicted
    report = json.loads(out.stdout)
    assert report["verdict"] == "fail"
    assert report["computed"]["formula"] == 9
    assert report["computed"]["regFs"] == 10


def test_cli_parse_error_exit_code(defs_file):
    out = run_cli("eval", defs_file, "I^")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_cli_cap_error_exit_code(pair_file):
    out = run_cli("betti", pair_file, "I", FIBERLAB_CAPS="lattice=1")
    assert out.returncode == 3
    assert "cap" in out.stderr.lower()
    # the cap, the value reached, and the override
    assert "lcm lattice reached 3 points" in out.stderr  # x^2, x*y and x^2*y
    assert "over cap lattice=1" in out.stderr
    assert "FIBERLAB_CAPS=lattice=<value>" in out.stderr


def test_cli_caps_reach_component_in_definition_files(pair_file):
    # the run's FIBERLAB_CAPS bound component(A, d), not the default caps
    out = run_cli("eval", pair_file, "component(I, 5)", FIBERLAB_CAPS="component_degree=3")
    assert out.returncode == 3
    assert "component degree 5 was asked for, over cap component_degree=3" in out.stderr
    out = run_cli("eval", pair_file, "component(I, 70)", FIBERLAB_CAPS="component_degree=100")
    assert out.returncode == 0
    assert out.stdout.startswith("x^70, x^69*y, ")


def test_cli_dense_koszul_matrix_over_the_limit_is_a_cap_error(tmp_path):
    # I^2 -> m*I of the appendix ideal needs a GF(p) strand matrix of over
    # 10^8 cells: a cap error, not a MemoryError, under a 3 GB address space
    path = tmp_path / "tv.fl"
    path.write_text(APPENDIX + "S = I^2;\nB = maxideal(R) * I;\n")
    out = run_fiberlab("--char", "32003", "torvanish", str(path), "S", "B",
                       address_space_kib=3_000_000)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert "dense GF(p) matrix of shape" in out.stderr
    assert "not a FIBERLAB_CAPS cap" in out.stderr


@pytest.mark.parametrize("call, cap", [
    (lambda env, caps: component_ideal(env.ideal("I"), 3, caps), "component_degree"),
    (lambda env, caps: tor_dimensions(env.ideal("I"), 0, caps=caps), "koszul_basis"),
    (lambda env, caps: betti_table(env.ideal("I") ** 2, 0, caps, threads=1), "lattice"),
], ids=["component", "koszul", "lattice"])
def test_cap_errors_name_cap_value_and_override(call, cap):
    env = load_definitions(PAIR)
    with pytest.raises(CapError) as raised:
        call(env, Caps(**{cap: 2}))
    message = str(raised.value)
    assert f"over cap {cap}=2 (set FIBERLAB_CAPS={cap}=<value>)" in message
    assert re.search(r"\d", message.split(", over cap")[0])  # the value reached


def test_cli_internal_error_exit_code(pair_file, monkeypatch, capsys):
    # an internal invariant failing is exit 4, never exit 1 (a failed claim)
    def broken(*args, **kwargs):
        monkeypatch.setattr(koszul, "coordinates_in_span", lambda *a: None)
        ideal = args[0]
        return koszul.tor_map(ideal, ideal, 0)

    monkeypatch.setattr(cli, "tor_dimensions", broken)
    assert cli.main(["tor", pair_file, "I"]) == 4
    assert "internal error" in capsys.readouterr().err


def _cli_into_closed_pipe(*argv: str, read: int = 0) -> subprocess.CompletedProcess:
    """Run the CLI with a reader that takes ``read`` bytes and closes the pipe."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FIBERLAB_")}
    reader, writer = os.pipe()
    child = subprocess.Popen([sys.executable, "-m", "fiberlab.cli", *argv],
                             stdout=writer, stderr=subprocess.PIPE, env=env)
    os.close(writer)
    with os.fdopen(reader, "rb") as pipe:
        head = pipe.read(read)
    _, err = child.communicate(timeout=600)
    return subprocess.CompletedProcess(child.args, child.returncode, head, err.decode())


R55 = """
ring R = [a,b,c];
ring S = [x];
I = ideal(R; a^4, a^3*b, a*b^3, b^4, a^2*b^2*c^4);
J = ideal(S; x^4);
"""


@pytest.mark.parametrize("argv, read, code", [
    (("scenario", "lemma-A3", "--stable-json"), 0, 0),
    (("verify", "cor-5.2", "--input", "{r55}", "--I", "I", "--J", "J", "--s", "2"), 0, 1),
    (("eval", "{defs}", "maxideal(R)^8"), 10, 0),
], ids=["closed-before-output", "closed-before-failed-claim", "closed-after-10-bytes"])
def test_cli_reader_closing_stdout_ends_output_only(defs_file, tmp_path, argv, read, code):
    # the reader goes away before, or while, the CLI writes (the third
    # output is 88 kB, more than a pipe holds): no traceback, and the exit
    # code is the one the run earned
    r55 = tmp_path / "r55.fl"
    r55.write_text(R55)
    argv = tuple(a.format(defs=defs_file, r55=r55) for a in argv)
    out = _cli_into_closed_pipe(*argv, read=read)
    assert len(out.stdout) == read
    assert "Traceback" not in out.stderr and "BrokenPipe" not in out.stderr
    assert out.returncode == code
    assert run_cli(*argv).returncode == code  # the same run with a reader


@pytest.mark.parametrize("argv, env, named", [
    (("betti",), {"FIBERLAB_CAPS": "bogus=1"}, "bogus"),
    (("betti",), {"FIBERLAB_CAPS": "hilbert_degree=512"}, "hilbert_degree"),
    (("betti",), {"FIBERLAB_CAPS": "lattice=abc"}, "lattice"),
    (("betti",), {"FIBERLAB_CAPS": "lattice=-5"}, "lattice"),
    (("--threads", "0", "betti"), {}, "--threads"),
], ids=["caps-unknown-name", "caps-removed-name", "caps-non-integer", "caps-not-positive",
        "threads-zero"])
def test_cli_malformed_setting_is_usage_error(pair_file, argv, env, named):
    out = run_cli(*argv, pair_file, "I", **env)
    assert out.returncode == 2
    assert named in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("claim, flags, named", [
    ("thm-5.1", ("--s", "0"), "s must be at least 1"),
    ("cor-5.2", ("--s", "0"), "s must be at least 1"),
    ("lemma-4.1", ("--s", "0"), "s must be at least 1"),
    ("cor-8.1", ("--scap", "1"), "s_cap must be at least 2"),
    ("thm-6.1", ("--s", "0"), "s must be at least 1"),
    ("cor-7.2", ("--s", "0"), "s must be at least 1"),
], ids=["thm-5.1", "cor-5.2", "lemma-4.1", "cor-8.1", "thm-6.1", "cor-7.2"])
def test_cli_claim_parameter_out_of_range_is_usage_error(pair_file, claim, flags, named):
    # these used to end in a traceback (max of an empty sequence) or pass
    # vacuously on an empty check
    factors = ("--I", "I") if claim == "lemma-4.1" else ("--I", "I", "--J", "J")
    out = run_cli("verify", claim, "--input", pair_file, *factors, *flags)
    assert out.returncode == 2
    assert named in out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_cli_scenario_runs(pair_file):
    out = run_cli("scenario", "remark-5.6", "--stable-json")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["verdict"] == "pass"
    assert "elapsedMs" not in report


def test_cli_unknown_scenario():
    out = run_cli("scenario", "no-such-thing")
    assert out.returncode == 2


def test_cli_scenario_parameter_must_be_an_integer():
    out = run_cli("scenario", "remark-5.9(x)")
    assert out.returncode == 2
    assert "remark-5.9(x)" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv, named", [
    (("lemma-5.4", "--n", "5"), "takes no parameter n"),
    (("remark-5.6(4)",), "takes no parameter n"),
    (("remark-5.9(2)", "--n", "3"), "disagrees with n = 3"),
], ids=["flag-not-taken", "name-parameter-not-taken", "name-and-flag-disagree"])
def test_cli_scenario_parameter_not_taken_is_usage_error(argv, named):
    # each of these used to run with exit 0 and drop a parameter value
    out = run_cli("scenario", *argv)
    assert out.returncode == 2
    assert argv[0] in out.stderr and named in out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_scenario_parameter_in_the_name_may_repeat_the_argument():
    named = run_scenario("remark-5.9(2)", n=2)
    plain = run_scenario("remark-5.9", n=2)
    assert [r.to_json_dict(False) for r in named] == [r.to_json_dict(False) for r in plain]
