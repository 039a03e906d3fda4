"""Numerical verification of eigenvalue and norm extensions of Bohr's inequality.

The package is layered bottom-up:

- :mod:`bohrcheck.linalg`: validated complex matrices, Hermitian
  eigendecomposition, seeded random inputs;
- :mod:`bohrcheck.calculus`: scalar convex-function registry with scanned
  hypothesis flags, Hermitian functional calculus and |A|^r;
- :mod:`bohrcheck.majorization`: singular values, Schatten sums and the
  Ky Fan frame estimate;
- :mod:`bohrcheck.cpmaps`: structured positive maps with Choi/Kraus/
  Stinespring machinery;
- :mod:`bohrcheck.inequalities`: the inequality checkers;
- :mod:`bohrcheck.serialize`: wire formats, instance payloads, and the
  digest of checker arguments;
- :mod:`bohrcheck.harness` / :mod:`bohrcheck.cli`: seeded fuzzing
  campaigns, replay (the harness stamps each report with its instance
  digest), demo, and the command-line front end.

Each module imports only modules listed before it.
"""

from .linalg import (
    DimensionError,
    EigenDecomposition,
    Interval,
    eig_hermitian,
    hermitize,
    make_rng,
    random_hermitian,
    random_map_family,
    random_unitary,
)
from .calculus import (
    ConvexFunctionSpec,
    DomainError,
    abs_power,
    apply_fun,
    function_registry,
    make_function_spec,
)
from .majorization import (
    ky_fan_max_estimate,
    schatten_of_values,
    singular_values,
)
from .cpmaps import (
    BlockExtraction,
    Congruence,
    DiagonalPOVM,
    MapSpec,
    SpecError,
    StinespringDilation,
    Transpose,
    WeightedSum,
    apply_map,
    choi_matrix,
    is_completely_positive,
    kraus_from_choi,
    kraus_operators,
    map_dims,
    normalize_unital,
    stinespring,
)
from .inequalities import (
    CheckReport,
    NumericalError,
    check_cor_congruence,
    check_eigen_bohr,
    check_increasing_convex_eigen,
    check_jensen_map,
    check_jensen_vector,
    check_norm_bohr,
    check_pointwise_bohr_r2,
    check_scalar_bohr,
    check_sum_square,
    check_thm_weak_major,
    check_vasic_keckic,
)
from .harness import (
    CampaignConfig,
    CampaignResult,
    GenerationError,
    TrialRecord,
    demo,
    replay,
    run_campaign,
    run_instance,
)

__version__ = "0.1.0"
