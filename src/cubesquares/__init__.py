"""Desk-scale laboratory for writing integers as four squares of sums of
three positive cubes: weight tables and generating sums, complete
exponential sums and local densities, arc dissections, oscillatory
integrals, exact representation counts, and an exceptional-set census.
"""

from .params import DegenerateParamsError, Params, derive_params
from .errors import CapacityError, QuadratureError, VerificationError
from .smooth import SmoothSet, enumerate_smooth, estimate_c_eta
from .cubesieve import CubeSumSieve, sieve_cube_sums
from .weights import WeightTable, build_weight_table, load_binary, load_csv, save_binary, save_csv
from .residues import cube_residue_counts, cyclic_convolve, t_distribution
from .expsums import (
    SeriesTruncation,
    coefficient_Sn,
    complete_sum_S,
    complete_sum_S_batch,
    gauss_sum_S2,
    truncated_singular_series,
)
from .localsolve import (
    EulerFactorEstimate,
    HenselCertificate,
    TwoAdicProfile,
    hensel_certificate,
    local_count_Mn,
    m33_set,
    mod27_square_sets,
    sigma_p,
    two_adic_profile,
)
from .w2 import w2, w2_carrier, w2_scan
from .arcs import TAU, ArcDissection, ArcHit, classify
from .oscillatory import osc_integral_v, osc_integral_v_thin, v_at_zero
from .generating import F_diagnostic, W_star, eval_W, eval_h, h_star, model_V, model_W
from .mainterm import (
    MainTermReport,
    RnEvaluator,
    rn_dense_dft,
    singular_integral_J,
)
from .census import (
    Census,
    DyadicFilter,
    ObstructionProof,
    brute_force_representable,
    filter_A_upsilon,
    run_census,
    verify_obstruction_family,
    witness_for,
)
from .scale import Scale

__version__ = "0.1.0"
