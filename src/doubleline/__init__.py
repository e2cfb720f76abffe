"""Flat-foldable doubling of crease patterns and thick-panel generation.

The package splits a vertex's creases into parallel pairs around a small
polygon (the double-line construction), connects such polygons across a
whole vertex network, analyzes the resulting one-parameter motions, and
extrudes panels that respect the motion's thickness bound.
"""
from .dl import (
    ALL_MODES,
    GENERIC_MODES,
    MODE_A1,
    MODE_A2,
    MODE_B1,
    MODE_B2,
    MODE_SYM_MINUS,
    MODE_SYM_PLUS,
    DLMode,
    DLMultipliers,
    DLRecord,
    DlError,
    DoubleLineParams,
    DoubleLineRatio,
    ThetaRegime,
    assign_mode_mv,
    axis_class,
    axis_offsets,
    axis_sums,
    classify_theta,
    construct_dl,
    corner_coefficients,
    corner_mode_map,
    corner_modes,
    critical_thetas,
    dl_multipliers,
    double_line_ratio,
    major_coefficient,
    mode_from_label,
    mode_is_valid,
    pattern_multipliers,
    read_record,
    sign_pattern_product,
    theta_for_even_minor,
    theta_for_ratio,
    valid_modes,
)
from .fold3d import (
    Fold3dError,
    FoldedState,
    MotionSample,
    SolveError,
    export_obj,
    network_multipliers,
    propagate_fold,
    solve_fold_angles,
    sweep_motion,
    vertex_closure_residual,
)
from .fold_io import get_extra, load_fold, save_fold, set_extra
from .kinematics import (
    FoldMode,
    KinematicsError,
    ModeVector,
    branch_multipliers,
    fold_angles_at,
    loop_closure_product,
    mode_vector,
    p_coeff,
    q_coeff,
    speed_coefficient,
)
from .pattern import (
    Crease,
    CreasePattern,
    PatternError,
    VertexStar,
    is_flat_foldable_deg4,
    kawasaki_residual,
    vertex_star,
)
from .patterns import (
    VertexNetwork,
    connect_tree_dl,
    connect_uniform_dl,
    face_loop_products,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    gen_single_deg4,
    gen_symmetric_vertex,
    gen_yoshimura,
    infer_modes,
)
from .svg import save_svg
from .symmetric import (
    construct_symmetric_dl,
    count_modes,
    enumerate_mode_sequences,
    quarter_angle_coefficient,
    symmetric_fold_relation,
)
from .thicken import (
    PanelSolid,
    ThickPanelParams,
    ThickenError,
    clearance_check,
    clearance_records,
    crease_half_widths,
    export_clearance_csv,
    export_solids_obj,
    flat_fold_parameter,
    max_thickness,
    thicken,
    watertight_gap,
)

__version__ = "0.1.0"
