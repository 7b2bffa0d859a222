"""Exact combinatorics of straightening laws, generalized Hibi ideals and the
maximal Groebner cones attached to semistandard and PBW-semistandard monomial
ideals of the Pluecker ideal."""

from .cones import cone_hrep, facet_count, facet_witness, interior_witness
from .plucker_lattices import pbw_lattice, semistandard_lattice
from .straightening import ideal_membership, straighten_pair
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "cone_hrep",
    "facet_count",
    "facet_witness",
    "ideal_membership",
    "interior_witness",
    "pbw_lattice",
    "run_suite",
    "semistandard_lattice",
    "straighten_pair",
]
