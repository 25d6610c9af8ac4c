"""Resource caps and global defaults.

Caps are hard limits: exceeding one raises CapError instead of degrading
the answer.  Library calls take them as a ``caps=`` argument and default
to ``DEFAULT_CAPS``.  The command line reads overrides from the
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
    lattice: int = 2_000_000        # lcm-lattice point count
    koszul_basis: int = 200_000     # Koszul strand basis size per (i, j)
    component_degree: int = 64      # component_ideal degree
    hilbert_degree: int = 512       # hilbert_function degree


DEFAULT_CAPS = Caps()


def default_threads() -> int:
    return os.cpu_count() or 1
