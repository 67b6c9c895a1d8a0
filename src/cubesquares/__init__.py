"""Desk-scale laboratory for writing integers as four squares of sums of
three positive cubes: weight tables and generating sums, complete
exponential sums and local densities, arc dissections, oscillatory
integrals, exact representation counts, and an exceptional-set census.
"""

__version__ = "0.1.0"
