"""Reference copy of the single-vertex mode record as the kit wrote it before
one certified mode step served every doubled pattern.

Each corner took the branch of its own sign ('-' is a, '+' is b), read
straight off the construction layout, and nothing was certified.  The tests
require ``fix_mode`` to write these bytes, and to refuse what this refuses.
"""
from dataclasses import replace

from doubleline.dl import (
    DlError,
    assign_mode_mv,
    pattern_multipliers,
    read_record,
    write_record,
)
from doubleline.kinematics import FoldMode


def _single_vertex(pattern):
    rec = read_record(pattern)
    if rec is None or len(rec.corners) != 1 or len(rec.pairs) != len(*rec.corners.values()):
        raise DlError("pattern carries no single-vertex double-line record")
    (v,) = rec.corners
    return rec, v


def corner_mode_map(pattern, mode):
    """Vertex id -> local FoldMode assignment realizing a DL mode."""
    rec, v = _single_vertex(pattern)
    return {cv: FoldMode.A if s == "-" else FoldMode.B for cv, s in zip(rec.corners[v], mode.signs)}


def fix_mode(pattern, mode):
    """A constructed DL pattern labeled M/V by one mode, the mode kept in its record."""
    mult = pattern_multipliers(pattern, mode)
    rec, v = _single_vertex(pattern)
    rec = replace(rec, signs={v: "".join(mode.signs)}, scales={v: 1.0},
                  corner_modes=corner_mode_map(pattern, mode), multipliers=tuple(mult.tolist()))
    return write_record(assign_mode_mv(pattern, mult), rec)
