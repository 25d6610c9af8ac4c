"""The benchmark's oracles accept hand-known answers and reject altered ones.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from fiberlab import MonomialIdeal, Ring, betti_table  # noqa: E402

# the maximal ideal of k[x,y,z]: beta = 3, 3, 1 on the squarefree multidegrees
MAXIMAL = (
    (0, (1, 0, 0), 1), (0, (0, 1, 0), 1), (0, (0, 0, 1), 1),
    (1, (1, 1, 0), 1), (1, (1, 0, 1), 1), (1, (0, 1, 1), 1),
    (2, (1, 1, 1), 1),
)
XYZ = oracles.as_array(oracles.unit_vectors(3), 3)
OFF_TABLE = ((2, 0, 0), (2, 1, 1), (0, 0, 0), (3, 2, 1))


def test_euler_accepts_the_maximal_ideal():
    assert oracles.euler_mismatches(MAXIMAL, XYZ, OFF_TABLE) == []


def test_euler_rejects_one_changed_entry():
    changed = MAXIMAL[:-1] + ((2, (1, 1, 1), 2),)
    assert oracles.euler_mismatches(changed, XYZ) == [((1, 1, 1), 2, 1)]


def test_euler_rejects_a_missing_entry_at_an_extra_point():
    # dropping the top syzygy leaves (1,1,1) off the table; the oracle
    # must still find it when (1,1,1) is among the extra points
    missing = MAXIMAL[:-1]
    assert oracles.euler_mismatches(missing, XYZ) == []
    assert oracles.euler_mismatches(missing, XYZ, [(1, 1, 1)]) == [((1, 1, 1), 0, 1)]


def test_euler_accepts_a_non_generic_ideal():
    # (x^2, xy): generators x^2, xy and one syzygy in degree x^2 y
    table = ((0, (2, 0), 1), (0, (1, 1), 1), (1, (2, 1), 1))
    gens = oracles.as_array([(2, 0), (1, 1)], 2)
    assert oracles.euler_mismatches(table, gens, [(2, 2), (1, 0), (3, 1)]) == []


def test_euler_on_fiberlab_tables_and_non_minimal_generators():
    ring = Ring("R", ("x", "y", "z"))
    gens = [(2, 0, 0), (1, 1, 0), (0, 1, 2)]
    ideal = MonomialIdeal.from_exponents(ring, gens)
    square = oracles.as_array(oracles.power(gens, 2), 3)  # not minimal
    table = betti_table(ideal ** 2, 0, threads=1)
    extra = oracles.sample_joins(square, 200, seed=3)
    assert oracles.euler_mismatches(table.entries, square, extra) == []
    i, b, d = table.entries[-1]
    altered = table.entries[:-1] + ((i, b, d + 1),)
    assert oracles.euler_mismatches(altered, square, extra)


def test_membership_accepts_and_rejects_a_colon():
    # (x^2, xy) : x = (x, y) in k[x,y]
    lhs = oracles.in_colon([(2, 0), (1, 1)], 2, (1, 0))
    assert oracles.membership_mismatches(2, 5, lhs, oracles.in_gens([(1, 0), (0, 1)], 2)) == 0
    assert oracles.membership_mismatches(2, 5, lhs, oracles.in_gens([(1, 0), (0, 2)], 2)) > 0


def test_star_derivative():
    assert oracles.star_derivative_gens([(2, 1)]) == {(1, 1), (2, 0)}


def _identity_op(name, seed=4):
    ops = {op.name: op for op in workloads.ideal_identities(seed, threads=1)}
    return ops[name]


def _one_generator_raised(ideal: MonomialIdeal) -> MonomialIdeal:
    first, *rest = ideal.gens
    return MonomialIdeal.from_exponents(ideal.ring, [(first[0] + 1,) + first[1:], *rest])


def test_lemma_identity_oracles_accept_fiberlab_and_reject_a_changed_side():
    for name in ("L0/A3.ii", "L0/A4.ii"):
        op = _identity_op(name)
        lhs, rhs = op.call({})
        assert op.check((lhs, rhs), {}), name
        assert not op.check((lhs, _one_generator_raised(rhs)), {}), name
        assert not op.check((_one_generator_raised(lhs), rhs), {}), name


def test_appendix_table_check_rejects_one_changed_entry():
    # the smallest appendix table, I^2 over GF(32003), with its real check
    op = workloads.appendix_lattice(seed=2, threads=1)[0]
    table = op.call({})
    assert op.check(table, {})
    i, b, d = table.entries[0]
    altered = type(table)(table.subject, table.characteristic,
                          ((i, b, d + 1),) + table.entries[1:])
    assert not op.check(altered, {})
