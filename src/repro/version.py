"""Version information for the :mod:`repro` package."""

__version__ = "1.10.0"

#: Paper reproduced by this package.
PAPER = (
    "R. Brightwell, D. Doerfler, K. D. Underwood, "
    "'A Comparison of 4X InfiniBand and Quadrics Elan-4 Technologies', "
    "Proceedings of CLUSTER 2004, pp. 193-204."
)
