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
2 parse or usage error, 3 a resource cap was exceeded, 4 an internal
invariant of the engine failed (a bug, never a verdict on a claim).  A
reader that closes standard output early ends the output, not the run:
the exit code is the one the run earned.

Caps come from the FIBERLAB_CAPS environment variable (``name=value``
pairs, comma-separated), read once per run; an unknown name or a value
that is not a positive integer is a usage error.

Output is deterministic for fixed inputs and flags; timings are omitted
from JSON when --stable-json is given (or FIBERLAB_STABLE_JSON=1), so
reruns are byte-identical regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .config import Caps
from .errors import CapError, FiberlabError, GrammarError, InternalError
from .betti import betti_table
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
from .koszul import tor_vanishing
from .lang import Environment, eval_expression, load_file
from .reports import Report
from .scenarios import run_scenario, scenario_names

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


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
    common.add_argument("--threads", type=_positive_int, default=argparse.SUPPRESS, metavar="N",
                        help="worker cap for the Betti engine (default: all cores)")
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

    p = sub.add_parser("verify", parents=[common],
                       help="verify one claim on ideals from a file")
    p.add_argument("claim", help="thm-5.1 | cor-5.2 | prop-3.4 | thm-6.1 | cor-7.2 | "
                                 "thm-3.6 | lemma-4.1 | cor-8.1 | cor-8.2")
    p.add_argument("--input", metavar="FILE", help="definition file")
    p.add_argument("--I", dest="left", metavar="NAME", help="left factor ideal")
    p.add_argument("--J", dest="right", metavar="NAME", help="right factor ideal")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--scap", type=int, default=3, help="power bound for cor-8.1 and cor-8.2")
    p.add_argument("--mode", default="certificate", choices=("certificate", "exact"),
                   help="lemma-4.1 mode")

    p = sub.add_parser("scenario", parents=[common],
                       help="run a scenario from the claim registry")
    p.add_argument("name", help=" | ".join(scenario_names()))
    p.add_argument("--n", type=int, default=None, help="parameter for remark-5.9")
    return top


def _resolve(env: Environment, name: str, path: str):
    if ":" in name:
        stem, _, bare = name.partition(":")
        base = os.path.splitext(os.path.basename(path))[0]
        if stem != base:
            raise GrammarError(f"qualifier {stem!r} does not match input file {base!r}")
        name = bare
    return env.ideal(name)


def _invariants_payload(ideal, char, caps, threads) -> dict:
    inv = invariants_of(ideal, char, caps, threads)
    return {
        "reg": inv.reg,
        "pdim": inv.pdim,
        "depth": inv.depth,
        "t0": inv.t0,
        "componentwiseLinear": _componentwise_linear(ideal, inv.reg, char, caps, threads),
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


def _stable(args) -> bool:
    return args.stable_json or os.environ.get("FIBERLAB_STABLE_JSON") == "1"


def _emit_reports(args, reports: list[Report]) -> int:
    include_timing = not _stable(args)
    lines = [json.dumps(r.to_json_dict(include_timing), sort_keys=True) for r in reports]
    _emit(args, "\n".join(lines))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _run(args, caps: Caps) -> int:
    char = 0 if args.char is None else args.char
    threads = args.threads

    if args.verb == "eval":
        env = load_file(args.file, char, caps)
        value = eval_expression(env, args.expression)
        _emit(args, str(value))
        return EXIT_OK

    if args.verb in ("betti", "invariants", "tor"):
        env = load_file(args.file, char, caps)
        ideal = _resolve(env, args.name, args.file)
        if args.verb == "invariants":
            payload = _invariants_payload(ideal, char, caps, threads)
            if args.json:
                _emit(args, json.dumps(payload, sort_keys=True))
            else:
                _emit(args, "\n".join(f"{k} = {v}" for k, v in sorted(payload.items())))
            return EXIT_OK
        table = betti_table(ideal, char, caps, threads)
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
        env = load_file(args.file, char, caps)
        small = _resolve(env, args.small, args.file)
        big = _resolve(env, args.big, args.file)
        ok, witness = tor_vanishing(small, big, char, caps=caps)
        if ok:
            payload = {"vanishing": True, "maxNonzero": None}
        else:
            payload = {"vanishing": False, "witness": {"i": witness[0], "j": witness[1]}}
        _emit(args, json.dumps(payload, sort_keys=True))
        return EXIT_OK

    if args.verb == "verify":
        return _run_verify(args, caps, char, threads)

    if args.verb == "scenario":
        params = {}
        if args.n is not None:
            params["n"] = args.n
        reports = run_scenario(args.name, characteristic=args.char,
                               caps=caps, threads=threads, **params)
        return _emit_reports(args, reports)

    raise GrammarError(f"unknown verb {args.verb!r}")


def _run_verify(args, caps, char, threads) -> int:
    claim = args.claim
    if claim == "lemma-4.1":
        if not args.input or not args.left:
            raise GrammarError("lemma-4.1 needs --input and --I")
        env = load_file(args.input, char, caps)
        ideal = _resolve(env, args.left, args.input)
        rep = verify_tor_vanishing_lemma(ideal, args.s, args.mode, char, caps)
        return _emit_reports(args, [rep])
    if not args.input or not args.left or not args.right:
        raise GrammarError(f"claim {claim!r} needs --input, --I, and --J")
    env = load_file(args.input, char, caps)
    left = _resolve(env, args.left, args.input)
    right = _resolve(env, args.right, args.input)
    from .ideals import project_to_block

    if left.ring == right.ring and len(left.ring.blocks) == 2:
        blocks = left.ring.block_names()
        left = project_to_block(left, blocks[0])
        right = project_to_block(right, blocks[1])
    setup = fiber_product(left, right)
    if claim == "thm-5.1":
        rep = check_reg_formula(setup, args.s, char, caps, threads)
    elif claim == "cor-5.2":
        rep = check_reg_formula_equigenerated(setup, args.s, char, caps, threads)
    elif claim in ("thm-6.1", "prop-3.4"):
        rep = check_depth_formula(setup, args.s, char, caps, threads)
    elif claim == "cor-7.2":
        rep = check_componentwise(setup, args.s, char, caps, threads)
    elif claim == "thm-3.6":
        rep = verify_betti_splitting(setup.F, setup.H, setup.J, char, caps, threads,
                                     claim="thm-3.6", params={})
    elif claim in ("cor-8.1", "cor-8.2"):
        rep = check_reg_increasing(setup, args.scap, char, caps, threads, claim=claim)
    else:
        raise GrammarError(f"unknown claim {claim!r}")
    return _emit_reports(args, [rep])


_FLAG_DEFAULTS = {
    "char": None, "threads": None, "json": False, "stable_json": False, "output": None,
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
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FiberlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
