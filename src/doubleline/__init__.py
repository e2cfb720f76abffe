"""Flat-foldable doubling of crease patterns and thick-panel generation.

The package splits a vertex's creases into parallel pairs around a small
polygon (the double-line construction), connects such polygons across a
whole vertex network, analyzes the resulting one-parameter motions, and
extrudes panels that respect the motion's thickness bound.

``import doubleline`` loads no submodule: each public name is imported
from its module on first access and then kept on the package (PEP 562).
"""
import importlib
import sys
import types

# Each submodule and the public names it defines; the package exports these.
_EXPORTS = {
    "dl": (
        "ALL_MODES", "GENERIC_MODES", "MODE_A1", "MODE_A2", "MODE_B1", "MODE_B2",
        "MODE_SYM_MINUS", "MODE_SYM_PLUS", "DLMode", "DLMultipliers", "DLRecord", "DlError",
        "DoubleLineParams", "DoubleLineRatio", "ThetaRegime", "assign_mode_mv", "axis_class",
        "axis_offsets", "axis_sums", "classify_theta", "construct_dl", "corner_coefficients",
        "corner_mode_map", "corner_modes", "critical_thetas", "dl_multipliers",
        "double_line_ratio", "flat_fold_parameter", "major_coefficient", "mode_from_label",
        "mode_is_valid", "pattern_multipliers", "read_record", "sign_pattern_product",
        "theta_for_even_minor", "theta_for_ratio", "valid_modes",
    ),
    "fold3d": (
        "Fold3dError", "FoldedState", "MotionSample", "SolveError", "export_obj",
        "network_multipliers", "propagate_fold", "solve_fold_angles", "sweep_motion",
        "vertex_closure_residual",
    ),
    "fold_io": ("get_extra", "load_fold", "save_fold", "set_extra"),
    "kinematics": (
        "FoldMode", "KinematicsError", "ModeVector", "branch_multipliers", "fold_angles_at",
        "mode_vector", "p_coeff", "q_coeff",
    ),
    "pattern": (
        "Crease", "CreasePattern", "PatternError", "VertexStar", "is_flat_foldable_deg4",
        "kawasaki_residual", "vertex_star",
    ),
    "patterns": (
        "VertexNetwork", "connect_dl", "gen_dl_miura", "gen_dl_yoshimura",
        "gen_miura", "gen_single_deg4", "gen_symmetric_vertex", "gen_yoshimura", "infer_modes",
    ),
    "svg": ("save_svg",),
    "symmetric": (
        "construct_symmetric_dl", "count_modes", "enumerate_mode_sequences",
        "quarter_angle_coefficient", "symmetric_fold_relation",
    ),
    "thicken": (
        "PanelSolid", "ThickPanelParams", "ThickenError", "clearance_check",
        "clearance_records", "crease_half_widths", "export_clearance_csv", "export_solids_obj",
        "max_thickness", "thicken", "watertight_gap",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    # Loading a submodule binds it on the package; the submodule `thicken`
    # must not hide the exported function `thicken`.
    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and value is sys.modules.get(f"{__name__}.{name}")):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
