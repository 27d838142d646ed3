"""Bicomplex pseudoanalytic function theory: algebra, integral operators,
Cauchy kernels and formal powers, and the Schroedinger main-Vekua bridge."""

__version__ = "0.1.0"
