"""Command-line front end.

Verbs:
    eval        print the canonical generators of an expression
    betti       Betti table of a named ideal (text or JSON)
    invariants  reg / pdim / depth / t0 / componentwise linearity
    tor         graded Tor dimensions: the coarse Betti table, read off the
                lattice engine as ``betti`` does
    torvanish   Tor-vanishing verdict for an inclusion of ideals
    verify      run one claim check against a definition file
    scenario    run a named scenario from the claim registry

Exit codes: 0 success (all checks passed), 1 a verification failed,
2 parse or usage error, 3 a resource cap was exceeded or the run ran out
of memory (one line on stderr, no traceback), 4 an internal invariant of
the engine failed (a bug, never a verdict on a claim).  A reader that
closes standard output early ends the output, not the run: the exit code
is the one the run earned.

Caps come from the FIBERLAB_CAPS environment variable (``name=value``
pairs, comma-separated), read once per run; ``lattice`` is the one cap.
An unknown name, a name given twice, or a value that is not a positive
integer is a usage error.  Every other limit is fixed and cannot be set.

Output is deterministic for fixed inputs and flags; timings are omitted
from JSON when --stable-json is given, so reruns are byte-identical.

``verify`` reads its claims from the table ``_CLAIMS``; a flag the claim
does not take is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import partial

from .config import Caps
from .errors import CapError, FiberlabError, GrammarError, InternalError
from .betti import betti_table, tor_vanishing
from .fiber import (
    check_componentwise,
    check_depth_formula,
    check_reg_formula,
    check_reg_formula_equigenerated,
    check_reg_increasing,
    fiber_product,
    verify_betti_splitting,
    verify_tor_vanishing_lemma,
)
from .invariants import _componentwise_linear, invariants_of
from .lang import eval_expression, load_file
from .reports import Report
from .scenarios import run_scenario, scenario_names

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

# claim id -> (check, its parameter flag, the value it runs at without that flag,
# the flag's least value).  A check is called as check(subject, value, char, caps) on
# the fiber product of --I and --J; verify_tor_vanishing_lemma, on the --I ideal and
# --mode instead.
_CLAIMS = {
    "thm-5.1": (check_reg_formula, "--s", 1, 1),
    "cor-5.2": (check_reg_formula_equigenerated, "--s", 1, 1),
    "prop-3.4": (check_depth_formula, None, 1, None),
    "thm-6.1": (check_depth_formula, "--s", 2, 2),
    "cor-7.2": (check_componentwise, "--s", 1, 1),
    "thm-3.6": (lambda setup, _, *run: verify_betti_splitting(
        setup.F, setup.H, setup.J, *run, claim="thm-3.6", params={}), None, None, None),
    "lemma-4.1": (verify_tor_vanishing_lemma, "--s", 1, 1),
    "cor-8.1": (partial(check_reg_increasing, claim="cor-8.1"), "--scap", 3, 2),
    "cor-8.2": (partial(check_reg_increasing, claim="cor-8.2"), "--scap", 3, 2),
}
# verify's flags that some claims do not take, with their argparse dests
_CLAIM_FLAGS = {"--J": "right", "--s": "s", "--scap": "s_cap", "--mode": "mode"}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text.strip()!r}")
    return value


def _read_caps() -> Caps:
    """Caps with the overrides of FIBERLAB_CAPS applied."""
    known = [f.name for f in fields(Caps)]
    updates: dict[str, int] = {}
    for item in os.environ.get("FIBERLAB_CAPS", "").split(","):
        if not item.strip():
            continue
        name, _, value = (part.strip() for part in item.partition("="))
        if name not in known:
            raise GrammarError(
                f"FIBERLAB_CAPS: unknown cap {name!r}; known caps: {', '.join(known)}"
            )
        if name in updates:
            raise GrammarError(f"FIBERLAB_CAPS: cap {name!r} is given more than once")
        try:
            updates[name] = _positive_int(value)
        except argparse.ArgumentTypeError as exc:
            raise GrammarError(f"FIBERLAB_CAPS: cap {name!r}: {exc}") from None
    return Caps(**updates)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subparser from clobbering flags given before the verb
    common.add_argument("--char", type=int, default=argparse.SUPPRESS, metavar="P",
                        help="coefficient field characteristic (0 or a prime p with "
                             "(p-1)^2 < 2^63; default 0, "
                             "except scenarios with a documented fast-prime default)")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON instead of text")
    common.add_argument("--stable-json", action="store_true", default=argparse.SUPPRESS,
                        help="omit timings from JSON for byte-identical reruns")
    common.add_argument("--output", metavar="PATH", default=argparse.SUPPRESS,
                        help="write output to a file")

    top = argparse.ArgumentParser(
        prog="fiberlab",
        description="exact homological invariants of monomial ideals and fiber products",
        parents=[common],
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate an ideal expression")
    p.add_argument("file")
    p.add_argument("expression")

    for verb in ("betti", "invariants", "tor"):
        p = sub.add_parser(verb, parents=[common])
        p.add_argument("file")
        p.add_argument("name", help="ideal name bound in the file")

    p = sub.add_parser("torvanish", parents=[common],
                       help="Tor-vanishing of an inclusion small -> big")
    p.add_argument("file")
    p.add_argument("small")
    p.add_argument("big")

    claims = [f"  {claim:<10} " + (f"{flag} K, default {value}, least {least}" if flag
                                   else "no parameter flag")
              for claim, (_, flag, value, least) in _CLAIMS.items()]
    p = sub.add_parser("verify", parents=[common], help="verify one claim on ideals from a file",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="claims and the one parameter flag each takes:\n"
                              + "\n".join(claims))
    p.add_argument("claim", choices=_CLAIMS, metavar="CLAIM", help="one of the claims below")
    p.add_argument("--input", required=True, metavar="FILE", help="definition file")
    p.add_argument("--I", dest="left", required=True, metavar="NAME",
                   help="left factor ideal, or the one ideal")
    p.add_argument("--J", dest="right", metavar="NAME", help="right factor, in its own ring")
    p.add_argument("--s", type=int, metavar="K", help="power s")
    p.add_argument("--scap", dest="s_cap", type=int, metavar="K", help="power bound")
    p.add_argument("--mode", choices=("certificate", "exact"), help="default certificate")

    p = sub.add_parser("scenario", parents=[common],
                       help="run a scenario from the claim registry")
    p.add_argument("name", help=" | ".join(scenario_names()))
    p.add_argument("--n", type=int, default=None, help="parameter for remark-5.9")
    return top


def _invariants_payload(ideal, char, caps) -> dict:
    inv = invariants_of(ideal, char, caps)
    return {
        "reg": inv.reg,
        "pdim": inv.pdim,
        "depth": inv.depth,
        "t0": inv.t0,
        "componentwiseLinear": _componentwise_linear(ideal, inv.reg, char, caps),
    }


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise GrammarError(f"--output: {exc}") from None
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader is gone: send the rest, and the flush at exit, nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _emit_reports(args, reports: list[Report]) -> int:
    include_timing = not args.stable_json
    lines = [json.dumps(r.to_json_dict(include_timing), sort_keys=True) for r in reports]
    _emit(args, "\n".join(lines))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _run(args, caps: Caps) -> int:
    char = 0 if args.char is None else args.char

    if args.verb == "eval":
        env = load_file(args.file, char)
        value = eval_expression(env, args.expression)
        _emit(args, str(value))
        return EXIT_OK

    if args.verb in ("betti", "invariants", "tor"):
        env = load_file(args.file, char)
        ideal = env.ideal(args.name)
        if args.verb == "invariants":
            payload = _invariants_payload(ideal, char, caps)
            if args.json:
                _emit(args, json.dumps(payload, sort_keys=True))
            else:
                _emit(args, "\n".join(f"{k} = {v}" for k, v in sorted(payload.items())))
            return EXIT_OK
        table = betti_table(ideal, char, caps)
        if args.json:
            payload = table.to_json_dict()
            if args.verb == "tor":  # the coarse table only
                del payload["multigraded"]
            _emit(args, json.dumps(payload, sort_keys=True))
        else:
            rows = sorted(table.coarse().items())
            _emit(args, "\n".join(f"i={i} j={j} dim={d}" for (i, j), d in rows))
        return EXIT_OK

    if args.verb == "torvanish":
        env = load_file(args.file, char)
        small = env.ideal(args.small)
        big = env.ideal(args.big)
        ok, witness = tor_vanishing(small, big, char, caps=caps)
        if ok:
            payload = {"vanishing": True, "maxNonzero": None}
        else:
            payload = {"vanishing": False, "witness": {"i": witness[0], "j": witness[1]}}
        _emit(args, json.dumps(payload, sort_keys=True))
        return EXIT_OK

    if args.verb == "verify":
        return _run_verify(args, caps, char)

    if args.verb == "scenario":
        params = {} if args.n is None else {"n": args.n}
        reports = run_scenario(args.name, characteristic=args.char, caps=caps, **params)
        return _emit_reports(args, reports)

    raise GrammarError(f"unknown verb {args.verb!r}")


def _run_verify(args, caps, char) -> int:
    check, flag, value, least = _CLAIMS[args.claim]
    one_ideal = check is verify_tor_vanishing_lemma  # no fiber product, and a --mode
    takes = (flag, "--mode" if one_ideal else "--J")
    for other, dest in _CLAIM_FLAGS.items():
        if getattr(args, dest) is not None and other not in takes:
            raise GrammarError(f"verify {args.claim} takes no {other}")
    if flag and getattr(args, _CLAIM_FLAGS[flag]) is not None:
        value = getattr(args, _CLAIM_FLAGS[flag])
        if value < least:
            raise GrammarError(f"verify {args.claim}: {_CLAIM_FLAGS[flag]} must be at least "
                               f"{least}, got {value}")
    if not one_ideal and args.right is None:
        raise GrammarError(f"verify {args.claim} needs --J")
    env = load_file(args.input, char)
    left = env.ideal(args.left)
    if one_ideal:
        return _emit_reports(args, [check(left, value, args.mode or "certificate", char, caps)])
    right = env.ideal(args.right)
    if left.ring == right.ring:
        raise GrammarError(f"--I and --J are both over ring {left.ring.name!r}; "
                           "give each factor in its own ring")
    return _emit_reports(args, [check(fiber_product(left, right), value, char, caps)])


_FLAG_DEFAULTS = {
    "char": None, "json": False, "stable_json": False, "output": None,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    for name, default in _FLAG_DEFAULTS.items():  # SUPPRESS leaves gaps
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return _run(args, _read_caps())
    except CapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("out of memory: the run needs more memory than this process may use",
              file=sys.stderr)
        return EXIT_CAP
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FiberlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
