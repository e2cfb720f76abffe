"""The package's public names: the same list as before they loaded lazily, each
the object its module defines, and all of them visible to dir() and star imports."""
import importlib
import sys
import types

import pytest

import doubleline

# The names `import doubleline` exported when its __init__ imported every module.
EXPORTS = (
    "ALL_MODES", "Crease", "CreasePattern", "DLMode", "DLMultipliers", "DLRecord", "DlError",
    "DoubleLineParams", "DoubleLineRatio", "Fold3dError", "FoldMode", "FoldedState",
    "GENERIC_MODES", "KinematicsError", "MODE_A1", "MODE_A2", "MODE_B1", "MODE_B2",
    "MODE_SYM_MINUS", "MODE_SYM_PLUS", "ModeVector", "MotionSample", "PanelSolid",
    "PatternError", "SolveError", "ThetaRegime", "ThickPanelParams", "ThickenError",
    "VertexNetwork", "VertexStar", "assign_mode_mv", "axis_class", "axis_offsets", "axis_sums",
    "branch_multipliers", "classify_theta", "clearance_check", "clearance_records",
    "connect_dl", "construct_dl", "construct_symmetric_dl",
    "corner_coefficients", "corner_mode_map", "corner_modes", "count_modes", "crease_half_widths",
    "critical_thetas", "dl_multipliers", "double_line_ratio", "enumerate_mode_sequences",
    "export_clearance_csv", "export_obj", "export_solids_obj",
    "flat_fold_parameter", "fold_angles_at", "gen_dl_miura", "gen_dl_yoshimura", "gen_miura",
    "gen_single_deg4", "gen_symmetric_vertex", "gen_yoshimura", "get_extra", "infer_modes",
    "is_flat_foldable_deg4", "kawasaki_residual", "load_fold",
    "major_coefficient", "max_thickness", "mode_from_label", "mode_is_valid", "mode_vector",
    "network_multipliers", "p_coeff", "pattern_multipliers", "propagate_fold", "q_coeff",
    "quarter_angle_coefficient", "read_record", "save_fold", "save_svg", "set_extra",
    "sign_pattern_product", "solve_fold_angles", "sweep_motion",
    "symmetric_fold_relation", "theta_for_even_minor", "theta_for_ratio", "thicken", "valid_modes",
    "vertex_closure_residual", "vertex_star", "watertight_gap",
)


def test_all_is_the_export_list():
    assert sorted(doubleline.__all__) == sorted(EXPORTS)


def test_each_name_is_its_home_modules_object():
    for name in EXPORTS:
        home = importlib.import_module(f"doubleline.{doubleline._HOME[name]}")
        assert getattr(doubleline, name) is getattr(home, name), name


def test_dir_and_star_import_cover_the_exports():
    assert set(EXPORTS) <= set(dir(doubleline))
    namespace = {}
    exec("from doubleline import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        doubleline.no_such_name


def test_loading_the_thicken_module_keeps_the_thicken_function():
    # the import system binds a loaded submodule on its package, and the
    # module doubleline.thicken shares its name with the function
    importlib.import_module("doubleline.thicken")
    assert isinstance(doubleline.thicken, types.FunctionType)
    assert doubleline.thicken is sys.modules["doubleline.thicken"].thicken
