"""Spectral decomposition toolkit for skew-product dynamical systems.

Assembles Koopman-generator matrices on truncated Fourier bases, builds
base-point-indexed fiber subspace families, computes the operator-valued
eigenvalue data attached to them, and evaluates cocycle fields for
coherent-pattern visualization. See the README for the CLI front end.
"""

__version__ = "1.3.0"

__all__ = [
    "basis",
    "systems",
    "generator",
    "spectra",
    "oseledets",
    "eigenoperator",
    "cocycle",
    "oracles",
    "ioformats",
    "ftoa",
    "validation",
    "cli",
]
