"""The resource cap and global defaults.

Caps are hard limits: exceeding one raises CapError instead of degrading
the answer.  There is one, ``lattice``, on the lcm-lattice closure (every
Betti table and Tor-vanishing verdict; it counts the distinct points the
rank-by-rank closure holds at once, its survivors so far and a round's
candidates, and a product over disjoint variable blocks counts its Betti
points, the product of its factors' counts, for tables and verdicts
alike).  A closure that counts divisors over the box below its generators'
column maxima holds one count per cell, and is taken only for a box of at
most ``lattice`` cells: every point the rank-by-rank closure holds lies in
that box, so it could not have been refused there, and every refusal stays
as it was.  Library calls take it as a ``caps=`` argument and default to
``DEFAULT_CAPS``.  The command line reads overrides from the FIBERLAB_CAPS
environment variable (comma-separated ``name=value`` pairs, e.g.
``FIBERLAB_CAPS=lattice=4000000``) once per run and passes them down;
importing this package reads no environment.  Every other limit is fixed
where it is checked, and its error says so (``CapError.fixed``).
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class Caps:
    lattice: int = 2_000_000        # lcm-lattice points held at once, or product Betti points


DEFAULT_CAPS = Caps()
