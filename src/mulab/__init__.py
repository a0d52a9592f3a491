"""mulab: desk-scale experiments on Mobius-weighted exponential sums,
block entropy of finite-range sequences, hyperplane-arrangement piece
counts, and the exact difference calculus underlying them."""

from .exact_calculus import (
    RationalPoly,
    diff,
    extend_y,
    frac_diff_equivalence,
    lagrange_coeff,
    lagrange_poly,
    reconstruct_coeffs,
    sigma,
    value_bound,
    value_bound_holds,
)
from .fixedpoint import FixedReal, iroot, sqrt_const
from .sieves import (
    MobiusTable,
    PhiTable,
    euler_phi,
    load_cache,
    m_estimate,
    mertens,
    mertens_trace,
    pretentious_distance_sq,
    primes_up_to,
    save_cache,
    sieve_liouville,
    sieve_mobius,
    sieve_phi,
)
from .arrangements import (
    Hyperplane,
    classify_point,
    coarse_piece_bound,
    count_pieces,
    count_report,
    enumerate_pieces,
    hyperplane,
    locate_block_pieces,
    piece_bound,
)
from .symbolic_blocks import (
    BlockIndex,
    SymbolSeq,
    block_count_inequality_check,
    bracket_second_difference_labels,
    entropy_curve,
    index_blocks,
    indicator_block_bound,
    indicator_set,
    quantize_gn,
)
from .phases import (
    BracketPhase,
    ConcatPhase,
    GeometricSchedule,
    Phase,
    PolyPhase,
    ScheduledLagrangeConcat,
    SumPhase,
    LogPowerSchedule,
    build_concatenation,
    concat_residual,
    eval_phase,
    parse_phase,
    power_phase,
)
from .phase_sums import (
    SumReport,
    WeightTable,
    ap_correlation,
    blockwise_abs_average,
    dirichlet_approx,
    phase_shift_correlation,
    phase_table,
    residue_masked,
    shift_self_correlation,
    short_interval_sup_average,
    unit_weights,
    weighted_average,
    weights_from_table,
    zero_weights,
)

__version__ = "0.1.0"
