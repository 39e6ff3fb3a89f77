"""Least totient preimages in residue classes.

For odd m and gcd(a, m) = 1, the toolkit computes the least n with
phi(n) = a (mod m) by exact scan, searches for solutions of the form
4^d * p1 p2 p3 over three prime intervals, counts solutions through
Dirichlet-character orthogonality, and certifies the identities and
bounds the counting argument rests on.
"""

from .arith import (
    log_integral_between,
    primitive_root,
    trial_factorize,
)
from .bounds import (
    euler_product_constant,
    interval_count_accuracy,
    rakhmonov_inequality_check,
)
from .characters import UnitGroupContext, build_unit_group
from .counting import (
    CountReport,
    conductor_split,
    count_report,
    count_solutions_characters,
    count_solutions_direct,
    direct_counts,
    indicator_1am,
    main_term,
    positivity_certificate,
    psi_term,
    remainder_term,
)
from .errors import (
    BoundsError,
    ConsistencyError,
    DomainError,
    EvenModulusError,
    PhiminError,
)
from .intervals import (
    IntervalTriple,
    PrimeIntervalSet,
    build_custom_interval,
    build_interval,
    cardinality_prediction,
    character_sums_all,
    parseval_sum,
    rho_closed_form,
    rho_definition,
)
from .search import (
    SearchWitness,
    canonical_triple,
    constructive_search,
    exponent_scan,
    least_witnesses,
    oracle_N_multi,
)
from .sieve import SieveTables, build_sieve

__version__ = "0.1.0"
