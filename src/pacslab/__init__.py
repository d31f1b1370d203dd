"""Numerical laboratory for photon-added coherent states.

Two generation schemes are simulated in truncated Fock space: resonant
atom-cavity interaction and two-mode pair creation (parametric
down-conversion).  Every closed-form expression has an independent
brute-force oracle next to it, and the CLI emits reproducible curve data.

Names are imported from their modules, e.g.
``from pacslab import downconversion as dc``.
"""

__version__ = "0.1.0"
