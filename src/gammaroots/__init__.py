"""Exact and numeric verification of Gamma-product identities on root systems."""

__version__ = "0.1.0"
