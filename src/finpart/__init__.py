"""Verification-grade toolkit for finite constructions on finitary
partitions: enumeration and counting kernels, canonical bijections, the
up-closure/interior/boundary operator calculus, a brute-force polarized
Ramsey engine, an injective partition coder with full decoder, and a
permutation-symmetry toolkit — all with exhaustive or seeded property
suites behind a batch CLI."""

__version__ = "1.0.0"

from .core import (
    assoc_stirling,
    count_B_n,
    count_disjoint_tuples,
    enum_B_n,
    enum_disjoint_tuples,
    enum_O_n,
    enum_set_partitions,
    ns_blocks,
)
from .maps import bfin_map, disjoint_to_fin, fin_to_disjoint, tuple_to_partition
from .operators import (
    BudgetExceeded,
    CycleReport,
    boundary,
    boundary_power,
    interior,
    nilpotency_index,
    up,
)
from .coding import (
    CodeBook,
    CodingConfig,
    SizeSignature,
    block_sizes,
    decode,
    encode,
    extract_slice,
    materialize,
    pullback_Y,
)
from .ramsey import RamseyQuery, has_property, search_min_N, upper_bound_R
from .symmetry import (
    OrbitPair,
    apply_perm,
    even_odd_orbits,
    find_fixing_transposition,
    is_support,
    parity,
    preceq,
    restrict_outside,
)
