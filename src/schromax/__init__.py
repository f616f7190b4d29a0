"""Numerical laboratory for fractional Schrodinger means and their maximal operators."""
