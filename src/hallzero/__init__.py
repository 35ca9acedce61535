"""Exact computational algebra for partition monoids and the constant
terms of classical Hall polynomials, verified against a brute-force
finite-field submodule-counting oracle."""

from .algebra import H0Element, canonical_key, constant_term, f_inverse, f_map, h0_multiply
from .degeneration import (
    DEFAULT_WEIGHT_CAP,
    DegPoset,
    build_poset,
    leq_deg,
    load_poset,
    moebius_row,
    partitions_of,
    poset_of,
    save_poset,
    up_set,
)
from .errors import CapExceededError, InfeasibleError, InterpolationError
from .interpolate import (
    IntPoly,
    interpolate_hall_poly,
    n_stat,
    usable_primes,
)
from .monoid import (
    check_extension_bound,
    direct_sum,
    generic_extension,
    generic_extension_dual,
)
from .oracle import (
    SUPPORTED_PRIMES,
    JordanModule,
    count_all_subspaces,
    enumerate_invariant_subspaces,
    gaussian_binomial,
    hall_number,
    hall_number_table,
    weight_cap,
)
from .partitions import ZERO, Partition, PartitionParseError, parse_partition

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "DEFAULT_WEIGHT_CAP",
    "DegPoset",
    "H0Element",
    "InfeasibleError",
    "InterpolationError",
    "IntPoly",
    "JordanModule",
    "Partition",
    "PartitionParseError",
    "SUPPORTED_PRIMES",
    "ZERO",
    "build_poset",
    "canonical_key",
    "check_extension_bound",
    "constant_term",
    "count_all_subspaces",
    "direct_sum",
    "enumerate_invariant_subspaces",
    "f_inverse",
    "f_map",
    "gaussian_binomial",
    "generic_extension",
    "generic_extension_dual",
    "h0_multiply",
    "hall_number",
    "hall_number_table",
    "interpolate_hall_poly",
    "leq_deg",
    "load_poset",
    "moebius_row",
    "n_stat",
    "parse_partition",
    "partitions_of",
    "poset_of",
    "save_poset",
    "up_set",
    "usable_primes",
    "weight_cap",
]
