"""Shared fixtures and small independent oracles for the test suite.

The oracles here are deliberately self-contained (plain fractions, brute
enumeration) so that engine results are checked against code that shares
nothing with the production paths.
"""

from __future__ import annotations

import itertools
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from fiberlab import MonomialIdeal, Ring, parse_monomial
from fiberlab.linalg import rank_exact, rank_inputs


@pytest.fixture
def ring_xy():
    return Ring("R", ("x", "y"))

@pytest.fixture
def ring_xyz():
    return Ring("R", ("x", "y", "z"))


@pytest.fixture
def appendix_ring():
    return Ring("R", ("a", "b", "c", "d", "x", "y", "z", "t"))


# -- the CLI as a subprocess ------------------------------------------------


def run_fiberlab(*argv: str, env: dict[str, str] | None = None, text: bool = True,
                 address_space_kib: int | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m fiberlab.cli *argv`` and capture its output.

    The child inherits this process's environment, so ``PYTHONPATH`` and the
    interpreter setup carry over, minus every ``FIBERLAB_*`` setting of the
    caller; only the ``env`` overrides given here are applied on top.  A
    child that cannot import ``fiberlab`` fails the test with that cause
    rather than with its exit code, which would read as a verdict.
    ``address_space_kib`` sets RLIMIT_AS in the child only.
    """
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("FIBERLAB_")}
    child_env.update(env or {})

    def limit():
        limit_bytes = address_space_kib * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    result = subprocess.run(
        [sys.executable, "-m", "fiberlab.cli", *argv],
        capture_output=True, text=text, timeout=600, env=child_env,
        preexec_fn=None if address_space_kib is None else limit,
    )
    stderr = result.stderr if text else result.stderr.decode(errors="replace")
    if "No module named 'fiberlab'" in stderr:
        pytest.fail(f"the CLI subprocess cannot import fiberlab:\n{stderr}")
    return result


def ideal_of(ring: Ring, *texts: str) -> MonomialIdeal:
    return MonomialIdeal.from_monomials([parse_monomial(ring, t) for t in texts])


def random_ideal(rng, ring: Ring, max_gens: int = 5, max_deg: int = 4,
                 min_deg: int = 1) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(min_deg, max_deg)
        vec = [0] * ring.nvars
        for _ in range(d):
            vec[rng.randrange(ring.nvars)] += 1
        gens.append(tuple(vec))
    return MonomialIdeal.from_exponents(ring, gens)


# -- independent reduced simplicial homology over Q --------------------------


def _rank_fraction(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    col = 0
    while m and col < cols:
        piv = next((i for i, r in enumerate(m) if r[col] != 0), None)
        if piv is None:
            col += 1
            continue
        row = m.pop(piv)
        rank += 1
        inv = Fraction(1) / row[col]
        row = [v * inv for v in row]
        m = [
            [a - r[col] * b for a, b in zip(r, row)] if r[col] != 0 else r
            for r in m
        ]
        col += 1
    return rank


def reduced_homology_dims(faces: list[frozenset]) -> dict[int, int]:
    """{i: dim H-tilde_(i-1)} of a simplicial complex given as explicit faces.

    Faces are frozensets of vertex labels; the empty face must be listed
    if present.  Rational coefficients, textbook boundary matrices.
    """
    faces = sorted(set(map(frozenset, faces)), key=lambda f: (len(f), sorted(f)))
    if not faces:
        return {}
    by_card: dict[int, list[frozenset]] = {}
    for f in faces:
        by_card.setdefault(len(f), []).append(f)
    top = max(by_card)
    ranks = {}
    for k in range(1, top + 1):
        source = by_card.get(k, [])
        target = by_card.get(k - 1, [])
        index = {f: i for i, f in enumerate(target)}
        rows = [[Fraction(0)] * len(source) for _ in target]
        for c, f in enumerate(source):
            verts = sorted(f)
            for pos, v in enumerate(verts):
                sub = f - {v}
                rows[index[sub]][c] = Fraction(-1 if pos % 2 else 1)
        ranks[k] = _rank_fraction(rows) if target and source else 0
    out = {}
    for k in range(0, top + 1):
        dim = len(by_card.get(k, [])) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if dim:
            out[k] = dim
    return out


def exact_rank(triplets, shape: tuple[int, int]) -> int:
    """Rank over Q of the matrix with (row, col, value) ``triplets``, laid out
    by ``rank_inputs`` as the engines lay out theirs."""
    if not triplets:
        return 0
    row, col, value = zip(*triplets)
    return sum(rank_exact(rows) for _, rows in
               rank_inputs([0] * len(triplets), row, col, value, [shape[0]], [shape[1]], 0))


def rank_mod_p_oracle(matrix, p: int) -> int:
    """Rank over GF(p) by textbook row reduction on Python ints."""
    rows = [[int(v) % p for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        pivot = [v * inv % p for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank


# -- brute-force monomial counting -------------------------------------------


def all_monomials(nvars: int, degree: int):
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        vec = [0] * nvars
        for i in combo:
            vec[i] += 1
        yield tuple(vec)


def count_in_ideal_bruteforce(ideal: MonomialIdeal, degree: int) -> int:
    return sum(
        1
        for mono in all_monomials(ideal.ring.nvars, degree)
        if any(all(g[i] <= mono[i] for i in range(len(mono))) for g in ideal.gens)
    )
