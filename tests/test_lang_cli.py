"""Definition-file grammar and the command-line surface."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fiberlab import (
    CapError,
    Caps,
    FiberlabError,
    GrammarError,
    RingMismatchError,
    betti_table,
    cli,
    component_ideal,
    ideals,
    invariants,
    koszul,
    lang,
)
from fiberlab.lang import eval_expression, load_definitions

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


def test_cli_invariants_past_the_component_cap(tmp_path):
    # componentwise linearity used to build the components up to reg = 65,
    # one past the degree cap of 64 that component ideals had then, and exit 3
    path = tmp_path / "x65.fl"
    path.write_text("ring R = [x, y];\nA = ideal(R; x^65);\n")
    out = run_cli("invariants", str(path), "A")
    assert out.returncode == 0
    assert "componentwiseLinear = True" in out.stdout.splitlines()


def test_cli_invariants_build_one_table_of_the_ideal(monkeypatch):
    # componentwise linearity reads invariants_of's regularity; the other
    # tables are of the component ideals
    ideal = load_definitions(R55).ideal("I")
    subjects = []
    table = invariants.betti_table
    monkeypatch.setattr(invariants, "betti_table",
                        lambda a, *rest: subjects.append(a) or table(a, *rest))
    payload = cli._invariants_payload(ideal, 0, Caps())
    assert (payload["reg"], payload["componentwiseLinear"]) == (8, False)
    assert sum(a is ideal for a in subjects) == 1


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


def test_cli_tor_json_schema(tmp_path):
    path = tmp_path / "m.fl"
    path.write_text("ring A = [x,y];\nM = maxideal(A);\n")
    out = run_cli("--json", "tor", str(path), "M")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {
        "char": 0,
        "entries": [{"i": 0, "j": 1, "dim": 2}, {"i": 1, "j": 2, "dim": 1}],
    }


FIBER_SQUARE = """
ring A = [x1,x2,x3];
ring B = [u1,u2];
tensor T = A (*) B;
P = ideal(A; x1^2, x1*x2, x2*x3^2);
Q = ideal(B; u1^2, u1*u2);
G = fiber(P, Q)^2;
"""


def test_cli_tor_reads_the_lattice_engine(tmp_path):
    # the Koszul strands take over 10 minutes on G = F^2, so the timeout
    # checks that tor reads the lattice engine: the betti table without
    # its multigraded entries
    path = tmp_path / "fiber.fl"
    path.write_text(FIBER_SQUARE)
    tor = run_fiberlab("--json", "tor", str(path), "G", timeout=60)
    betti = run_fiberlab("--json", "betti", str(path), "G", timeout=60)
    assert (tor.returncode, betti.returncode) == (0, 0)
    expected = json.loads(betti.stdout)
    del expected["multigraded"]
    assert json.loads(tor.stdout) == expected
    # the text tables agree too, on criterion 15's definition file
    r55 = tmp_path / "r55.fl"
    r55.write_text(R55)
    for name in ("I", "J"):
        tor, betti = (run_cli(verb, str(r55), name) for verb in ("tor", "betti"))
        assert tor.returncode == 0 and tor.stdout
        assert (tor.stdout, tor.stderr) == (betti.stdout, betti.stderr)


def test_cli_verify_exit_codes(pair_file):
    ok = run_cli("verify", "thm-6.1", "--input", pair_file, "--I", "I", "--J", "J",
                 "--s", "2", "--stable-json")
    assert ok.returncode == 0
    report = json.loads(ok.stdout)
    assert report["verdict"] == "pass"
    assert report["computed"]["depthFs"] == 1
    # a name is spelled one way: the file:name qualifier is gone
    qualified = run_cli("verify", "thm-5.1", "--input", pair_file, "--I", "pair:I",
                        "--J", "pair:J", "--s", "2", "--stable-json")
    assert qualified.returncode == 2
    assert "unknown ideal 'pair:I'" in qualified.stderr


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
    # component(A, d) has no settable cap: the removed component_degree is an unknown
    # cap, and d = 70, past its old default of 64, answers at the defaults
    out = run_cli("eval", pair_file, "component(I, 5)", FIBERLAB_CAPS="component_degree=3")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "unknown cap 'component_degree'; known caps: lattice" in out.stderr
    out = run_cli("eval", pair_file, "component(I, 70)")
    assert out.returncode == 0
    # (x^2, x*y) in degree 70: every monomial but y^70, in descending lex order
    want = ", ".join("*".join(f"{v}^{e}" if e > 1 else v for v, e in (("x", a), ("y", 70 - a)) if e)
                     for a in range(70, 0, -1))
    assert out.stdout == want + "\n"


def test_cli_component_of_one_variable_answers_at_any_degree(tmp_path):
    # one variable has one monomial per degree: with no degree cap, d = 2^31 - 2 takes
    # one step where the enumeration used to build a d-long tuple
    path = tmp_path / "x.fl"
    path.write_text("ring R = [x];\nI = ideal(R; x^2);\n")
    out = run_fiberlab("eval", str(path), "component(I, 2147483646)",
                       address_space_kib=1_000_000, timeout=60)
    assert out.returncode == 0
    assert "Traceback" not in out.stderr
    assert out.stdout == "x^2147483646\n"
    out = run_fiberlab("eval", str(path), "component(I, 2147483648)", address_space_kib=1_000_000)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "exponent 2147483648 is over the fixed limit of 2^31 - 1" in out.stderr


def test_cli_torvanish_answers_on_the_appendix_ideal(tmp_path):
    # I^2 -> m*I of the appendix ideal, lemma 4.1 at s = 2, t = 2: on the Koszul
    # strands it needed a GF(p) matrix of over 10^8 cells (exit 3) and over Q ran
    # past 120 s; the lattice engine answers both under a 3 GB address space
    path = tmp_path / "tv.fl"
    path.write_text(APPENDIX + "S = I^2;\nB = maxideal(R) * I;\n")
    for field in ((), ("--char", "32003")):
        out = run_fiberlab(*field, "torvanish", str(path), "S", "B",
                           address_space_kib=3_000_000, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "Traceback" not in out.stderr
        assert json.loads(out.stdout) == {"vanishing": True, "maxNonzero": None}


def test_cli_torvanish_of_a_product_past_the_support_limit_is_a_cap_error(tmp_path):
    # a product over the blocks x1..x13 and y1..y13 has a point on all 26 variables;
    # it is refused at the walk's fixed limit, where packing its tight masks in 24
    # bits would have attached them to the wrong points
    xs, ys = ([f"{v}{k}" for k in range(1, 14)] for v in "xy")
    halves = ["*".join(names[:7]) for names in (xs, ys)] + ["*".join(names[7:]) for names in (xs, ys)]
    path = tmp_path / "blocks.fl"
    path.write_text(f"ring R = [{', '.join(xs + ys)}];\n"
                    f"A = ideal(R; {halves[0]}, {halves[2]});\n"
                    f"B = ideal(R; {halves[1]}, {halves[3]});\nC = A * B;\n")
    out = run_fiberlab("torvanish", str(path), "C", "A", address_space_kib=3_000_000, timeout=120)
    assert out.returncode == 3
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert "a lattice point reached a support of 26 variables, over the walk's fixed limit" in out.stderr


def test_cli_betti_of_a_product_past_the_lattice_cap_is_a_cap_error(tmp_path):
    # (x1..x12) * (y1..y12) has 4,095^2 Betti points: convolving the factors' tables
    # ran out of memory after 58 s; the count is refused before the convolution
    xs, ys = ([f"{v}{k}" for k in range(1, 13)] for v in "xy")
    path = tmp_path / "xy.fl"
    path.write_text(f"ring R = [{', '.join(xs + ys)}];\nX = ideal(R; {', '.join(xs)});\n"
                    f"Y = ideal(R; {', '.join(ys)});\nC = X * Y;\n")
    out = run_fiberlab("--char", "32003", "betti", str(path), "C",
                       address_space_kib=3_000_000, timeout=60)
    assert out.returncode == 3
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert "a product over disjoint variable blocks has 16769025 Betti points" in out.stderr


def test_cli_walk_past_the_dense_limit_stops_at_its_refusal(tmp_path):
    # the walk of (x1^2, ..., x18^2) meets the support-18 point first, whose boundary
    # passes the dense limit; nothing else of the lattice is walked after the refusal
    xs = [f"x{k}" for k in range(1, 19)]
    path = tmp_path / "squares.fl"
    path.write_text(f"ring R = [{', '.join(xs)}];\n"
                    f"Q = ideal(R; {', '.join(x + '^2' for x in xs)});\n")
    out = run_fiberlab("--char", "32003", "betti", str(path), "Q", timeout=30)
    assert out.returncode == 3
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert ("cap exceeded: a dense GF(p) matrix of shape (43758, 48620) reached 2127513960 "
            "cells, over the fixed limit of 67108864 (not a FIBERLAB_CAPS cap") in out.stderr


def test_cli_threads_flag_is_a_usage_error(pair_file):
    # every walk runs in the calling process, and the flag that sized a worker pool is gone
    out = run_cli("--threads", "2", "betti", pair_file, "I")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: fiberlab ")
    assert "Traceback" not in out.stderr


def test_cli_pairwise_layout_past_its_fixed_limit_is_a_cap_error(tmp_path):
    # M * M with M = maxideal(R)^10 in 8 variables lays out 19,448^2 * 8 cells:
    # allocating them (11.3 GiB) ended in a NumPy traceback
    path = tmp_path / "mm.fl"
    path.write_text("ring R = [a, b, c, d, x, y, z, t];\nM = maxideal(R)^10;\n")
    out = run_fiberlab("eval", str(path), "M * M", address_space_kib=3_000_000)
    assert out.returncode == 3
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert ("pairing 19448 with 19448 generators in 8 variables would lay out 3025797632 cells, "
            "over the fixed limit of 268435456 (not a FIBERLAB_CAPS cap") in out.stderr


_PAST_THE_LIMIT = "ring R = [x];\nA = ideal(R; x^1073741824);\nC = A^2;\n"


@pytest.mark.parametrize("text, argv", [
    (_PAST_THE_LIMIT, ("betti", "C")),
    (_PAST_THE_LIMIT, ("torvanish", "C", "A")),
    ("ring R = [x];\nA = ideal(R; x^3000000000);\n", ("betti", "A")),
], ids=["betti-of-product", "torvanish-of-product", "generator"])
def test_cli_exponent_past_the_limit_is_a_usage_error(tmp_path, text, argv):
    # (x^(2^30))^2 wrapped to x^(-2^31) in int32: beta_0 at j = -2147483648, and a
    # failed containment; x^3000000000 ended in an OverflowError traceback
    path = tmp_path / "big.fl"
    path.write_text(text)
    out = run_fiberlab(argv[0], str(path), *argv[1:])
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert "over the fixed limit of 2^31 - 1" in out.stderr


def test_cli_principal_powers_take_one_step(tmp_path):
    # as s successive products, U^1000000 took 12 s and A^1000000 took 20 s
    path = tmp_path / "pow.fl"
    path.write_text("ring R = [x, y];\nU = ideal(R; 1);\nA = ideal(R; x);\n")
    for expr, want in (("U^1000000", "1\n"), ("A^1000000", "x^1000000\n")):
        out = run_fiberlab("eval", str(path), expr)
        assert (out.returncode, out.stdout) == (0, want)
    out = run_fiberlab("eval", str(path), "(x^2)^1073741824")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "exponent 2147483648 is over the fixed limit of 2^31 - 1" in out.stderr


def test_cli_out_of_memory_exits_3_without_a_traceback(tmp_path):
    # component(x, 4194000) in two variables has 4,194,000 generators, under the fixed
    # limit of 2^22, and needs more than a 1 GB address space: exit 3, as a cap, not
    # the exit 1 of a failed verification
    path = tmp_path / "two.fl"
    path.write_text("ring R = [x, y];\nI = ideal(R; x);\n")
    out = run_fiberlab("eval", str(path), "component(I, 4194000)",
                       address_space_kib=1_000_000, timeout=120)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert out.stderr == "out of memory: the run needs more memory than this process may use\n"
    assert out.stdout == ""


def test_cli_component_past_its_fixed_limit_is_a_cap_error(tmp_path):
    # component(a^2, 40) in 8 variables has 45,379,620 generators: it is refused
    # before any is built, where enumerating them ran out of memory
    path = tmp_path / "comp.fl"
    names = ("a", "b", "c", "d", "x", "y", "z", "t")
    path.write_text(f"ring R = [{', '.join(names)}];\nI = ideal(R; a^2);\n")
    out = run_fiberlab("eval", str(path), "component(I, 40)", address_space_kib=1_000_000)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert "would enumerate 45379620 generators, over the fixed limit of 4194304" in out.stderr
    assert "not a FIBERLAB_CAPS cap" in out.stderr
    # d = 20, 480,700 generators, still fits under the same address space
    out = run_fiberlab("eval", str(path), "component(I, 20)", address_space_kib=1_000_000)
    assert out.returncode == 0
    gens = []
    for combo in itertools.combinations_with_replacement(range(8), 18):
        exps = [2] + [0] * 7
        for v in combo:
            exps[v] += 1
        gens.append(tuple(exps))
    gens.sort(reverse=True)  # all of degree 20: the canonical order is lex, descending
    text = ", ".join("*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, g) if e)
                     for g in gens)
    assert out.stdout == text + "\n"


@pytest.mark.parametrize("call, cap", [
    (lambda env, caps: betti_table(env.ideal("I") ** 2, 0, caps, threads=1), "lattice"),
], ids=["lattice"])
def test_cap_errors_name_cap_value_and_override(call, cap):
    env = load_definitions(PAIR)
    with pytest.raises(CapError) as raised:
        call(env, Caps(**{cap: 2}))
    message = str(raised.value)
    assert f"over cap {cap}=2 (set FIBERLAB_CAPS={cap}=<value>)" in message
    assert re.search(r"\d", message.split(", over cap")[0])  # the value reached


@pytest.mark.parametrize("call, module, limit", [
    (lambda env: component_ideal(env.ideal("I"), 3), ideals, "COMPONENT_LIMIT"),
    (lambda env: koszul.tor_map(env.ideal("I"), env.ideal("I"), 0), koszul, "STRAND_LIMIT"),
], ids=["component", "koszul"])
def test_fixed_limit_errors_name_value_and_limit(monkeypatch, call, module, limit):
    # the limits that were the component_degree and koszul_basis caps are fixed:
    # their errors name the value reached and the limit, and say it cannot be raised
    monkeypatch.setattr(module, limit, 2)
    with pytest.raises(CapError) as raised:
        call(load_definitions(PAIR))
    message = str(raised.value)
    assert message.endswith(", over the fixed limit of 2 (not a FIBERLAB_CAPS cap; "
                            "it cannot be raised)")
    assert "FIBERLAB_CAPS=" not in message
    assert re.search(r"\d", message.split(", over the fixed")[0])  # the value reached


def test_cli_internal_error_exit_code(pair_file, monkeypatch, capsys):
    # an internal invariant failing is exit 4, never exit 1 (a failed claim)
    def broken(*args, **kwargs):
        monkeypatch.setattr(koszul, "coordinates_in_span", lambda *a: None)
        ideal = args[0]
        return koszul.tor_map(ideal, ideal, 0)

    monkeypatch.setattr(cli, "betti_table", broken)
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
    (("betti",), {"FIBERLAB_CAPS": "component_degree=3"}, "known caps: lattice"),
    (("betti",), {"FIBERLAB_CAPS": "koszul_basis=500000"}, "known caps: lattice"),
    # the last entry used to win: lattice=1 first answered, lattice=1 last exited 3
    (("betti",), {"FIBERLAB_CAPS": "lattice=1,lattice=100"}, "cap 'lattice' is given more"),
    (("betti",), {"FIBERLAB_CAPS": "lattice=100, lattice=1"}, "cap 'lattice' is given more"),
], ids=["caps-unknown-name", "caps-removed-name", "caps-non-integer", "caps-not-positive",
        "caps-removed-component-degree", "caps-removed-koszul-basis", "caps-named-twice-low-first",
        "caps-named-twice-high-first"])
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
    ("thm-6.1", ("--s", "0"), "s must be at least 2"),
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


_FLAG_VALUES = {"--J": "J", "--s": "2", "--scap": "3", "--mode": "exact"}


def _flags_not_taken():
    for claim, (_, flag, _, _) in cli._CLAIMS.items():
        own = "--mode" if claim == "lemma-4.1" else "--J"
        for other in _FLAG_VALUES:
            if other not in (flag, own):
                yield claim, other


@pytest.mark.parametrize("claim, flag", list(_flags_not_taken()))
def test_cli_verify_flag_the_claim_does_not_take_is_usage_error(pair_file, capsys, claim, flag):
    # thm-3.6 --s 3, cor-5.2 --mode exact and lemma-4.1 --J J used to run and exit 0
    argv = ["verify", claim, "--input", pair_file, "--I", "I", flag, _FLAG_VALUES[flag]]
    if claim != "lemma-4.1" and flag != "--J":
        argv += ["--J", "J"]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert f"verify {claim} takes no {flag}" in out.err
    assert out.out == ""


def test_cli_verify_reports_the_claim_asked_for(pair_file):
    # thm-6.1 at its default s = 1 used to report prop-3.4
    args = ("--input", pair_file, "--I", "I", "--J", "J", "--stable-json")
    default = run_cli("verify", "thm-6.1", *args)
    assert default.returncode == 0
    report = json.loads(default.stdout)
    assert (report["claim"], report["params"]) == ("thm-6.1", {"s": 2})
    assert default.stdout == run_cli("verify", "thm-6.1", *args, "--s", "2").stdout
    prop = run_cli("verify", "prop-3.4", *args)
    assert prop.returncode == 0
    assert (json.loads(prop.stdout)["claim"], json.loads(prop.stdout)["params"]) == (
        "prop-3.4", {"s": 1})
    out = run_cli("verify", "prop-3.4", *args, "--s", "2")
    assert out.returncode == 2
    assert "verify prop-3.4 takes no --s" in out.stderr
    assert out.stdout == ""


def test_cli_verify_cor_82_reports_corollary_82(pair_file):
    out = run_cli("verify", "cor-8.2", "--input", pair_file, "--I", "I", "--J", "J",
                  "--stable-json")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["claim"] == "cor-8.2"
    assert report["expected"]["provenance"] == "corollary 8.2"


@pytest.mark.parametrize("argv", [
    ("verify", "thm-9.9", "--input", "{pair}", "--I", "I", "--J", "J"),
    ("verify", "thm-5.1", "--I", "I", "--J", "J"),
    ("verify", "lemma-4.1", "--input", "{pair}"),
], ids=["unknown-claim", "no-input", "no-I"])
def test_cli_verify_argument_errors_get_the_usage_message(pair_file, argv):
    out = run_cli(*(a.format(pair=pair_file) for a in argv))
    assert out.returncode == 2
    assert out.stderr.startswith("usage: fiberlab verify")
    assert out.stdout == ""


def test_cli_verify_needs_each_factor_in_its_own_ring(tmp_path, pair_file):
    # a pair in one tensor ring used to be projected onto its two blocks
    path = tmp_path / "tensor.fl"
    path.write_text(PAIR + "tensor T = A (*) B;\nIT = I + J;\nJT = J + I;\n")
    out = run_cli("verify", "thm-5.1", "--input", str(path), "--I", "IT", "--J", "JT")
    assert out.returncode == 2
    assert "give each factor in its own ring" in out.stderr
    assert "Traceback" not in out.stderr
    out = run_cli("verify", "thm-5.1", "--input", pair_file, "--I", "I")
    assert out.returncode == 2
    assert "verify thm-5.1 needs --J" in out.stderr


def test_verify_claims_in_readme_and_help_match_the_table(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Verify claims:", 1)[1].split("```")[1]
    listed = [line.split()[0] for line in block.strip().splitlines()]
    assert cli.main(["verify", "--help"]) == 0
    helped = capsys.readouterr().out.split("claims and the one parameter flag each takes:")[1]
    assert listed == [line.split()[0] for line in helped.strip().splitlines()]
    assert listed == list(cli._CLAIMS)
    assert block.strip() == helped.strip()


def test_cli_stable_json_is_a_flag_only(pair_file):
    out = run_cli("verify", "thm-3.6", "--input", pair_file, "--I", "I", "--J", "J",
                  FIBERLAB_STABLE_JSON="1")
    assert out.returncode == 0
    assert "elapsedMs" in json.loads(out.stdout)


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
    (("remark-5.6(4)",), "unknown scenario"),
    (("remark-5.9(2)", "--n", "3"), "unknown scenario"),
    (("remark-5.9(8)",), "unknown scenario"),
], ids=["flag-not-taken", "name-parameter-not-taken", "name-and-flag-disagree",
        "name-parameter"])
def test_cli_scenario_parameter_not_taken_is_usage_error(argv, named):
    # the first used to run with exit 0 and drop a parameter value; a parameter
    # is spelled --n only, so a name with one in parentheses is no scenario
    out = run_cli("scenario", *argv)
    assert out.returncode == 2
    assert argv[0] in out.stderr and named in out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


# -- path errors, the nesting limit and token soups: never a traceback ---------


@pytest.mark.parametrize("case", ["input-is-a-directory", "input-not-utf8",
                                  "output-is-a-directory"])
def test_cli_path_errors_are_usage_errors(tmp_path, pair_file, case):
    # each ended in an IsADirectoryError or UnicodeDecodeError traceback, exit 1
    folder = tmp_path / "folder"
    folder.mkdir()
    latin1 = tmp_path / "latin1.fl"
    latin1.write_bytes(PAIR.encode() + "# caf\xe9\n".encode("latin-1"))
    argv, named = {
        "input-is-a-directory": (("eval", str(folder), "I"), str(folder)),
        "input-not-utf8": (("eval", str(latin1), "I"), str(latin1)),
        "output-is-a-directory": (("--output", str(folder), "eval", pair_file, "I"), str(folder)),
    }[case]
    out = run_fiberlab(*argv)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and repr(named) in out.stderr


def test_cli_nesting_limit(tmp_path, pair_file):
    # 200 nested parentheses ended in a RecursionError traceback; 150 evaluated
    out = run_fiberlab("eval", pair_file, "(" * 150 + "I" + ")" * 150)
    assert (out.returncode, out.stdout) == (0, "x^2, x*y\n")
    out = run_fiberlab("eval", pair_file, "(" * 200 + "I" + ")" * 200)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "nest deeper than the fixed limit of 150 levels (not a FIBERLAB_CAPS cap) " \
        "(at position 150)" in out.stderr
    # a level entered through the operator chain or a call costs a fixed
    # number of frames: 150 of each evaluate (or meet a ring error), 151 do not
    for opener, closer in [("I : I + I & I * (", ")"), ("I : I + I & I * fiber(I, ", ")"),
                           ("fiber(", ", J)"), ("component(", ", 3)")]:
        for levels in (150, 151):
            out = run_fiberlab("eval", pair_file, opener * levels + "I" + closer * levels)
            assert out.returncode in (0, 2) and "Traceback" not in out.stderr
            if levels == 151:
                assert "nest deeper than the fixed limit of 150 levels" in out.stderr
            try:
                eval_expression(load_definitions(PAIR), opener * levels + "I" + closer * levels)
            except GrammarError as exc:
                assert (levels == 151) == ("nest deeper" in str(exc))
            except FiberlabError:
                assert levels == 150
    deep = tmp_path / "deep.fl"
    deep.write_text(PAIR + "D = " + "(" * 5000 + "I" + ")" * 5000 + ";\n")
    out = run_fiberlab("eval", str(deep), "I")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "nest deeper than the fixed limit of 150 levels" in out.stderr


# the grammar's alphabet: keywords, names bound below, small integers (a large
# power of a non-principal ideal is a long computation, not an error), and
# every punctuation mark, a comment and a character outside the grammar
_SOUP_TOKENS = st.sampled_from([
    "ring", "tensor", "ideal", "maxideal", "fiber", "dstar", "component", "R", "A", "B",
    "T", "I", "J", "x", "y", "u", "zz", "0", "1", "2", "3", ";", "=", "[", "]", ",",
    "(", ")", "+", "*", "^", "&", ":", "(*)", "#", "\n", "$",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SOUP_TOKENS, max_size=30), st.booleans())
def test_token_soups_raise_only_fiberlab_errors(tokens, after_pair):
    text = " ".join(tokens)
    try:
        load_definitions(PAIR + text if after_pair else text)
    except FiberlabError:
        pass
    env = load_definitions(PAIR + "tensor T = A (*) B;\n")
    try:
        eval_expression(env, text)
    except FiberlabError:
        pass
