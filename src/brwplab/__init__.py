"""Sampling laboratory for kernel-proximal (BRWP) particle schemes and baselines."""

__version__ = "0.1.0"
