"""Exact bit-model machinery: straight-line programs over rationals,
hardness-gadget network compilation, exact backpropagation, and
finite-precision learning experiments."""

from .bench import GrowthRow, depth_growth_experiment, rows_to_csv
from .instances import (
    SchemaError,
    instance_size,
    parse_instance,
    parse_theta,
    serialize_instance,
    serialize_theta,
)
from .network import (
    Edge,
    EvalTrace,
    IdentityActivation,
    LossSpec,
    Network,
    NetworkError,
    NonDifferentiableLoss,
    PolyActivation,
    Sample,
    Theta,
    Vertex,
    forward,
    grad_coordinate,
    gradients,
    loss_total,
)
from .pac import (
    AdversarialPair,
    RoundedMultiplierClass,
    SimReport,
    make_pair,
    round_q,
    simulate_lower_bound,
)
from .product_identity import (
    DegreeError,
    LambdaCoeffs,
    RationalPoly,
    shift_expand,
    solve_lambda,
    verify_product_identity,
)
from .pwl import (
    BitBoundedActivation,
    GdStepReport,
    PwlActivation,
    WitnessVerdict,
    gd_step,
    leaky_relu,
    relu,
    verify_witness,
)
from .rationals import (
    BitBudgetError,
    DEFAULT_MAX_BITS,
    bit_extract,
    bit_length,
    format_rational,
    parse_rational,
    round_to_dyadic,
)
from .reductions import (
    BackpropInstance,
    CompileError,
    ErmInstance,
    GadgetReport,
    backprop_gradient,
    check_zero_aux_loss,
    compile_backprop,
    compile_erm,
    compile_hinge_posslp,
    decide_at_theta_star,
    gadget_report,
)
from .slp import (
    Gate,
    NormalizedSlp,
    Slp,
    SlpError,
    SlpSyntaxError,
    SlpValueReport,
    bit_of_slp,
    eval_slp,
    normalize_bn,
    parse_slp,
    sign_of_slp,
)

__version__ = "0.1.0"
