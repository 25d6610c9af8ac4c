"""Resource caps and global defaults.

Caps are hard limits: exceeding one raises CapError instead of degrading
the answer.  There are three, one per computation that can grow without
bound on small input: the lcm-lattice closure (every Betti table and
Tor-vanishing verdict; a product over disjoint variable blocks counts its
Betti points, the product of its factors' counts, for tables and verdicts
alike), a Koszul strand (``koszul.tor_map`` only) and a degree-d component
ideal.  Library calls take them as a ``caps=`` argument
(a definition file's ``component(A, d)`` reads ``Environment.caps``) and
default to ``DEFAULT_CAPS``.  The command line reads overrides from the
FIBERLAB_CAPS environment variable (comma-separated ``name=value`` pairs,
e.g. ``FIBERLAB_CAPS=lattice=4000000,koszul_basis=500000``) once per run
and passes them down; importing this package reads no environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class Caps:
    lattice: int = 2_000_000        # lcm-lattice or product Betti points of a table or verdict
    koszul_basis: int = 200_000     # Koszul strand basis size per (i, j)
    component_degree: int = 64      # d of component_ideal(A, d) and component(A, d)


DEFAULT_CAPS = Caps()


def default_threads() -> int:
    return os.cpu_count() or 1
