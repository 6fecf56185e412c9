"""Exact Bernstein-Gelfand-Gelfand machinery for parabolic geometries.

Everything is computed over the rationals: root systems and parabolic Hasse
diagrams (rootspace), graded Lie algebras in a Chevalley basis (gradedla),
finite dimensional modules (repmod), Lie algebra cohomology with its Hodge
theory (hodge), semi-holonomic jet modules (jetcalc), splitting operators and
BGG operator diagrams (bggcore), the certificates they are checked by
(certify), and a small CLI (bggcli).
"""

__version__ = "0.1.0"

# bggcli is left out so that `python -m artifact.bggcli` runs it fresh; it
# loads on `import artifact.bggcli` or `from artifact import *`.
from . import bggcore, certify, gradedla, hodge, jetcalc, linalg, repmod, rootspace

__all__ = [
    "bggcli",
    "bggcore",
    "certify",
    "gradedla",
    "hodge",
    "jetcalc",
    "linalg",
    "repmod",
    "rootspace",
]
