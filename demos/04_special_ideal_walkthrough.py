"""The special 8-variable ideal whose power regularity dips.

The ideal I = (a^2, b^2, c^2, d^2, abx, cdx, acy, bdy, adz, bcz, cdyzt)
is the workbench's hardest fixed input: its colon and intersection
identities are verified exactly, its powers satisfy reg I^3 = 9 and
reg(m^s I^2) = s + 8, and a related two-block family gives an ideal whose
regularity strictly drops from the first power to the second.

This is the heavy demo: expect a few minutes of exact arithmetic.
"""

from fiberlab import reg_of
from fiberlab.scenarios import (
    appendix_ideals,
    remark_59_setup,
    run_scenario,
)

env = appendix_ideals(32003)
I, q, H = env["I"], env["q"], env["H"]
print("generators of I:", I)
print("t0 =", I.t0(), " indeg =", I.indeg())

print("\n== exact identities (colon, intersection, containment) ==")
for report in run_scenario("lemma-A3"):
    print(f"  {report.claim:14s} {str(report.params):10s} -> {report.verdict}")

print("\n== regularity of mixed powers: reg(H^s q^i) = max(2s+3, 2s+i) ==")
for report in run_scenario("lemma-A5", characteristic=32003):
    s, i = report.params["s"], report.params["i"]
    print(f"  s={s} i={i}: reg = {report.computed['reg']} [{report.verdict}]")

print("\n== the desk slice: reg I^3 and reg(m^s I^2) ==")
for report in run_scenario("appendix-A1"):
    print(f"  {report.claim:24s} {str(report.params):24s} "
          f"reg = {report.computed['reg']} [{report.verdict}]")

print("\n== a two-block family whose regularity dips at the square ==")
setup = remark_59_setup(8, characteristic=0)
I8 = setup.I_left
print("n = 8:", len(I8.gens), "generators in", I8.ring.nvars, "variables")
print("reg I   =", reg_of(I8, 0), "(expected 13)")
print("reg I^2 =", reg_of(I8 ** 2, 0), "(expected 12: strictly smaller)")
