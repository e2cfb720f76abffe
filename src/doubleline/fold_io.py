"""FOLD-style document IO.

Documents are UTF-8 JSON text.  Supported keys: ``vertices_coords``
(pairs [x, y]), ``edges_vertices``, ``edges_assignment`` ("M"/"V"/"B"/"U"),
optional ``edges_foldAngle`` (degrees, valley positive), optional
``faces_vertices`` (computed from the embedding when absent).  Unknown
top-level keys are preserved verbatim on round-trip.  Fold angles are
radians everywhere inside the package; degrees appear only in the file.
"""
from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .pattern import Crease, CreasePattern, PatternError

_CONSUMED_KEYS = {
    "file_spec",
    "file_creator",
    "file_classes",
    "frame_classes",
    "vertices_coords",
    "edges_vertices",
    "edges_assignment",
    "edges_foldAngle",
    "faces_vertices",
}

# Degrees are quantized on write so that write -> read -> write is stable
# despite the radian/degree conversion not being exactly invertible.
_DEG_DECIMALS = 12


def _canon_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def set_extra(pattern: CreasePattern, key: str, obj: Any) -> CreasePattern:
    """Return a copy of the pattern with one foreign document key attached."""
    extras = dict(pattern.extras)
    extras[key] = _canon_json(obj)
    return dataclasses.replace(pattern, extras=tuple(sorted(extras.items())))


def get_extra(pattern: CreasePattern, key: str) -> Any | None:
    for k, v in pattern.extras:
        if k == key:
            return json.loads(v)
    return None


def is_number(x: Any) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def is_index(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _array(doc: dict, key: str, default: list) -> list:
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise PatternError(f"{key} must be a list")
    return value


def load_fold(data: bytes | str) -> CreasePattern:
    """Parse a FOLD document and validate it as a crease pattern."""
    vertices, creases, faces, extras = parse_fold(data)
    return CreasePattern.build(vertices, creases, faces=faces, extras=extras)


def parse_fold(
    data: bytes | str,
) -> tuple[list[tuple[float, float]], list[Crease], list[tuple[int, ...]] | None, dict[str, str]]:
    """A FOLD document's vertices, creases, faces (None when absent) and other keys, not yet built into a pattern.

    The document's shape is checked before any of it is used, so malformed
    input raises PatternError rather than an arbitrary exception.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise PatternError(f"not a valid JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise PatternError("top-level JSON value must be an object")

    vertices = []
    for i, p in enumerate(_array(doc, "vertices_coords", [])):
        if not (isinstance(p, list) and len(p) in (2, 3) and all(is_number(x) for x in p)):
            raise PatternError(f"vertex {i} must be a list of 2 or 3 finite numbers")
        if len(p) == 3 and abs(p[2]) > 1e-12:
            raise PatternError(f"vertex {i} is not planar (z = {p[2]})")
        vertices.append((float(p[0]), float(p[1])))

    edges = _array(doc, "edges_vertices", [])
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(is_index(v) for v in e)):
            raise PatternError(f"edge {i} must be a pair of integer vertex ids")
    assignments = _array(doc, "edges_assignment", ["U"] * len(edges))
    raw_angles = _array(doc, "edges_foldAngle", [None] * len(edges))
    if len(assignments) != len(edges) or len(raw_angles) != len(edges):
        raise PatternError("edge attribute arrays must match edges_vertices in length")
    for i, ang in enumerate(raw_angles):
        if ang is not None and not is_number(ang):
            raise PatternError(f"edge {i} fold angle must be a finite number or null")

    creases = []
    for (v0, v1), a, ang in zip(edges, assignments, raw_angles):
        if a == "F":  # flat creases from external files load as unassigned
            a = "U"
        fold = None if ang is None else math.radians(float(ang))
        creases.append(Crease(int(v0), int(v1), a, fold))

    faces = doc.get("faces_vertices")
    if faces is not None:
        faces = _array(doc, "faces_vertices", [])
        for i, f in enumerate(faces):
            if not (isinstance(f, list) and len(f) >= 3 and all(is_index(v) for v in f)):
                raise PatternError(f"face {i} must be a list of at least 3 integer vertex ids")
    extras = {k: _canon_json(v) for k, v in doc.items() if k not in _CONSUMED_KEYS}
    return vertices, creases, [tuple(f) for f in faces] if faces is not None else None, extras


def save_fold(pattern: CreasePattern, fold_angles: np.ndarray | None = None) -> bytes:
    """Serialize a pattern to a FOLD document (deterministic byte output).

    ``fold_angles``, when given, is a radian vector indexed by crease id and
    overrides the per-crease stored angles.
    """
    if fold_angles is not None and len(fold_angles) != len(pattern.creases):
        raise PatternError("fold_angles length must match the number of creases")

    def emit_angle(i: int, c: Crease) -> float | None:
        a = float(fold_angles[i]) if fold_angles is not None else c.fold_angle
        if a is None:
            return 0.0 if c.assignment == "B" else None
        return round(math.degrees(a), _DEG_DECIMALS)

    doc: dict[str, Any] = {
        "file_spec": 1.1,
        "file_creator": "doubleline",
        "frame_classes": ["creasePattern"],
        "vertices_coords": [[x, y] for x, y in pattern.vertices],
        "edges_vertices": [[c.v0, c.v1] for c in pattern.creases],
        "edges_assignment": [c.assignment for c in pattern.creases],
        "edges_foldAngle": [emit_angle(i, c) for i, c in enumerate(pattern.creases)],
        "faces_vertices": [list(f) for f in pattern.faces],
    }
    for k, v in pattern.extras:  # already sorted by key
        doc[k] = json.loads(v)
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
