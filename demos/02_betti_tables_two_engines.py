"""Betti tables and Tor-vanishing from the lattice engine.

The lattice engine computes reduced homology of upper Koszul complexes at
the join-closure of the generator degrees; regularity, projective
dimension, and depth then fall out of the coarse table.  The same
complexes give the maps on Tor that an inclusion of ideals induces, and
``tor_vanishing`` decides whether they all vanish.  The Koszul engine
(``fiberlab.koszul.tor_map``), which tensors an ideal with the Koszul
complex on all ring variables, builds the matrices of those maps.
"""

from fiberlab import (
    MonomialIdeal,
    Ring,
    betti_table,
    invariants_of,
    maxideal_power,
    parse_monomial,
    star_derivative,
    tor_vanishing,
)

ring = Ring("R", ("x", "y", "z"))
mm = maxideal_power(ring, None, 1)

print("== the Koszul baseline: the maximal ideal of k[x,y,z] ==")
table = betti_table(mm, 0)
print("coarse table:", table.coarse())
print("reg:", table.regularity())

print("\n== the lcm lattice carries the multigraded table ==")
taylor = MonomialIdeal.from_monomials(
    [parse_monomial(ring, "x^2"), parse_monomial(ring, "x*y")]
)
print("multigraded table of (x^2, xy):", betti_table(taylor, 0).multigraded())
print("(the generators at their own degrees, one syzygy at their join x^2*y)")

print("\n== induced maps on Tor: Tor-vanishing ==")
plane = Ring("P", ("x", "y"))
m1 = maxideal_power(plane, None, 1)
m2 = maxideal_power(plane, None, 2)
print("(x,y)^2 -> (x,y) Tor-vanishing:", tor_vanishing(m2, m1, 0))
print("(x,y) -> (x,y), the identity:  ", tor_vanishing(m1, m1, 0),
      " (witness: Tor_0 in degree 1)")
square = m2 ** 2
print("A = (x,y)^4 -> d*(A) = (x,y)^3, certified by the square-free derivative:",
      tor_vanishing(square, star_derivative(square), 0))

print("\n== derived invariants ==")
H = MonomialIdeal.from_exponents(
    Ring("Q", ("a", "b", "c", "d")), [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]
)
inv = invariants_of(H, 0)
print(f"four squares: reg={inv.reg} pdim={inv.pdim} depth={inv.depth}")

print("\n== characteristic matters in general ==")
print("(here it does not; see tests for a projective-plane ideal where it does)")
print("char 0:    ", betti_table(H, 0).coarse())
print("char 32003:", betti_table(H, 32003).coarse())
