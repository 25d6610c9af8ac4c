"""Correctness oracles that share no code with fiberlab.

Every check here works on plain exponent tuples and NumPy arrays built by
the benchmark itself, and decides monomial membership by plain
divisibility against a generating set.  The generating sets need not be
minimal: a product of ideals is generated by all products of their
generators, a sum by the union, so no fiberlab arithmetic is used to
build them.

* ``euler_mismatches`` checks a multigraded Betti table against the
  Euler characteristic of the upper Koszul complex (Miller-Sturmfels,
  *Combinatorial Commutative Algebra*, Thm 1.34): for every multidegree b,
  sum_i (-1)^i beta_(i,b) = sum over S in supp(b) of
  (-1)^|S| [x^(b - e_S) in I].
* ``membership_mismatches`` compares two membership predicates on every
  monomial up to a stated degree; the identity oracles of Lemmas A.3 and
  A.4 and the star-derivative oracle are built from it.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np

Exponents = tuple[int, ...]


# -- generating sets ---------------------------------------------------------


def as_array(gens, nvars: int) -> np.ndarray:
    arr = np.asarray(sorted(set(map(tuple, gens))), dtype=np.int64)
    return arr.reshape(len(arr), nvars)


def products(*factors) -> set[Exponents]:
    """All sums g_1 + ... + g_k with g_i taken from the i-th generator list."""
    out: set[Exponents] = {tuple([0] * len(next(iter(factors[0]))))}
    for factor in factors:
        out = {tuple(a + b for a, b in zip(u, g)) for u in out for g in factor}
    return out


def power(gens, k: int) -> set[Exponents]:
    return products(*([gens] * k))


def unit_vectors(nvars: int) -> list[Exponents]:
    return [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]


@functools.lru_cache(maxsize=8)
def monomials_up_to(nvars: int, degree: int) -> np.ndarray:
    """Every exponent vector of total degree at most ``degree`` (shared: do not modify)."""
    rows = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            vec = [0] * nvars
            for i in combo:
                vec[i] += 1
            rows.append(vec)
    return np.asarray(rows, dtype=np.int64)


def member(points: np.ndarray, gens: np.ndarray, chunk: int = 2048) -> np.ndarray:
    """Boolean mask: which rows of ``points`` some row of ``gens`` divides."""
    out = np.zeros(len(points), dtype=bool)
    if len(gens) == 0:
        return out
    for lo in range(0, len(points), chunk):
        part = points[lo : lo + chunk]
        out[lo : lo + chunk] = (gens[None, :, :] <= part[:, None, :]).all(axis=2).any(axis=1)
    return out


# -- Euler characteristic of a Betti table ----------------------------------


def _subset_rows(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All 0/1 rows of length m, and (-1)^|S| for each."""
    rows = np.array(list(itertools.product((0, 1), repeat=m)), dtype=np.int64).reshape(-1, m)
    return rows, np.where(rows.sum(axis=1) % 2, -1, 1)


def koszul_euler(b: Exponents, gens: np.ndarray) -> int:
    """sum over S in supp(b) of (-1)^|S| [x^(b - e_S) in the ideal of gens]."""
    bvec = np.asarray(b, dtype=np.int64)
    # a generator dividing some x^(b - e_S) divides x^b, so the others can go
    near = gens[(gens <= bvec[None, :]).all(axis=1)]
    if len(near) == 0:
        return 0
    supp = np.nonzero(bvec)[0]
    rows, signs = _subset_rows(len(supp))
    probes = np.repeat(bvec[None, :], len(rows), axis=0)
    probes[:, supp] -= rows
    return int(signs[member(probes, near)].sum())


def euler_mismatches(entries, gens: np.ndarray, extra_points=()) -> list[tuple]:
    """Multidegrees where the table's alternating sum differs from the oracle.

    ``entries`` are (i, b, dim) triples.  The check runs at every
    multidegree of the table and at each of ``extra_points``, where a
    multidegree the table omits must have an alternating sum of zero.
    """
    alternating: dict[Exponents, int] = {}
    for i, b, d in entries:
        key = tuple(int(e) for e in b)
        alternating[key] = alternating.get(key, 0) + (-1) ** i * d
    for b in extra_points:
        alternating.setdefault(tuple(int(e) for e in b), 0)
    bad = []
    for b, lhs in alternating.items():
        rhs = koszul_euler(b, gens)
        if lhs != rhs:
            bad.append((b, lhs, rhs))
    return bad


def sample_joins(gens: np.ndarray, count: int, seed: int) -> list[Exponents]:
    """Joins of 2 to 4 random generators: multidegrees off and on the lattice."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        picks = [rng.randrange(len(gens)) for _ in range(rng.randint(2, 4))]
        out.append(tuple(int(e) for e in gens[picks].max(axis=0)))
    return out


# -- brute-force membership ---------------------------------------------------


def membership_mismatches(nvars: int, degree: int, lhs, rhs) -> int:
    """Monomials of degree <= ``degree`` on which two predicates disagree.

    ``lhs`` and ``rhs`` map an (N, nvars) array of exponent vectors to an
    (N,) boolean membership mask.
    """
    points = monomials_up_to(nvars, degree)
    return int((lhs(points) != rhs(points)).sum())


def in_gens(gens, nvars: int):
    """Membership predicate of the ideal generated by ``gens``."""
    arr = as_array(gens, nvars)
    return lambda points: member(points, arr)


def in_colon(gens, nvars: int, monomial: Exponents):
    """Membership predicate of (ideal of gens) : x^monomial."""
    arr = as_array(gens, nvars)
    shift = np.asarray(monomial, dtype=np.int64)[None, :]
    return lambda points: member(points + shift, arr)


def in_both(first, second):
    return lambda points: first(points) & second(points)


def star_derivative_gens(gens) -> set[Exponents]:
    """g / x_v for every generator g and every variable x_v dividing it."""
    out = set()
    for g in gens:
        for v, e in enumerate(g):
            if e > 0:
                out.add(g[:v] + (e - 1,) + g[v + 1 :])
    return out
