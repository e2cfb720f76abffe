"""Reference copy of the single-vertex mode record as the kit wrote it before
one certified mode step served every doubled pattern.

Each corner took the branch of its own sign ('-' is a, '+' is b), read
straight off the construction layout, and nothing was certified.  The
multipliers are the test-side propagation around the polygon
(``mode_algebra_reference.dl_multipliers``, corner 0 at scale 1), placed by
``network_reference._placed``.  The tests require ``fix_mode`` to refuse
what this refuses, to write these multipliers to 1e-12 of the largest, and
every other byte as this writes it.
"""
from dataclasses import replace

from doubleline.dl import (
    DlError,
    assign_mode_mv,
    read_record,
    write_record,
)
from doubleline.kinematics import FoldMode
from mode_algebra_reference import dl_multipliers
from network_reference import _placed


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
    rec, v = _single_vertex(pattern)
    if len(mode.signs) != len(rec.sectors[v]):
        raise DlError(f"mode {mode.label} has {len(mode.signs)} signs, pattern degree {len(rec.sectors[v])}")
    mult, closure = dl_multipliers(rec.sectors[v], mode.signs, rec.thetas[v])
    if closure > 1e-9:
        raise DlError(f"mode {mode.label} does not close on this vertex")
    g = _placed(pattern, rec, {v: mult}, {v: 1.0})
    rec = replace(rec, signs={v: "".join(mode.signs)}, corner_modes=corner_mode_map(pattern, mode),
                  multipliers=tuple(g.tolist()))
    return write_record(assign_mode_mv(pattern, g), rec)
