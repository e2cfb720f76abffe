"""Planar crease patterns: data model, validation, vertex stars.

A crease pattern is a planar straight-line graph embedded in the plane,
with creases labeled mountain ("M"), valley ("V"), boundary ("B") or
unassigned ("U"), plus the list of faces the creases bound.  Coordinates
are dimensionless pattern units.  All angles are radians.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .geometry import angle_ccw, polygon_area, segments_intersect

ASSIGNMENTS = ("M", "V", "B", "U")
GEOMETRY_TOL = 1e-9  # shortest crease length; slack on angle bounds and sector sums

T = TypeVar("T")
_MEMO = "_per_pattern"  # the instance attribute holding per_pattern results


class PatternError(ValueError):
    """Raised for invalid or inconsistent crease patterns."""


def per_pattern(fn: Callable[["CreasePattern"], T]) -> Callable[["CreasePattern"], T]:
    """A function of the pattern alone, run once per pattern instance.

    The result is kept on the instance, as the cached properties are: the
    pattern is immutable, and the copies ``dataclasses.replace`` makes
    (``set_extra``, ``write_record``) start with no cache, as do pickled
    and copied patterns.  A call that raises keeps nothing, so it raises
    again on the next call.  Callers share the result, so it must be
    immutable or read-only.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(pattern: "CreasePattern") -> T:
        memo = pattern.__dict__.setdefault(_MEMO, {})
        if key not in memo:
            memo[key] = fn(pattern)
        return memo[key]

    return cached


@dataclass(frozen=True)
class Crease:
    v0: int
    v1: int
    assignment: str = "U"
    fold_angle: float | None = None  # target angle, radians


@dataclass(frozen=True)
class VertexStar:
    """Sector angles around one vertex, counterclockwise.

    For an interior vertex the listing starts at the incident crease with
    the lowest id and has as many sectors as creases.  For a boundary
    vertex it starts just after the exterior gap and has one sector fewer
    than creases; sectors[i] lies between crease_ids[i] and crease_ids[i+1].
    """

    vertex: int
    sectors: tuple[float, ...]
    crease_ids: tuple[int, ...]
    interior: bool

    @classmethod
    def from_sectors(cls, sectors: Sequence[float], vertex: int = 0) -> "VertexStar":
        """Synthetic interior star from raw sector angles (used heavily in tests)."""
        sectors = tuple(float(s) for s in sectors)
        if abs(sum(sectors) - 2.0 * math.pi) > 1e-9:
            raise PatternError("sector angles of an interior vertex must sum to 2*pi")
        return cls(vertex=vertex, sectors=sectors, crease_ids=tuple(range(len(sectors))), interior=True)

    @property
    def degree(self) -> int:
        return len(self.crease_ids)


class FaceTree(NamedTuple):
    """Breadth-first spanning tree of a pattern's faces, rooted at face 0.

    ``rows`` are (face, parent face, crease, whether the face is the
    crease's left face) in visiting order; ``off_tree`` are the creases
    between two faces that no row crosses, by id.
    """

    rows: tuple[tuple[int, int, int, bool], ...]
    off_tree: tuple[int, ...]


def _canon_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate a vertex cycle so it starts at its smallest element."""
    cycle = tuple(cycle)
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


@dataclass(frozen=True)
class CreasePattern:
    """Immutable crease pattern.

    Construct through :meth:`build`, which extracts faces from the planar
    embedding when they are not supplied and validates everything.
    """

    vertices: tuple[tuple[float, float], ...]
    creases: tuple[Crease, ...]
    faces: tuple[tuple[int, ...], ...]
    extras: tuple[tuple[str, str], ...] = field(default=())  # preserved foreign file keys

    @classmethod
    def build(
        cls,
        vertices: Iterable[Sequence[float]],
        creases: Iterable[Crease | tuple],
        faces: Iterable[Sequence[int]] | None = None,
        extras: Mapping[str, str] | None = None,
    ) -> "CreasePattern":
        verts = tuple((float(p[0]), float(p[1])) for p in vertices)
        cr = tuple(c if isinstance(c, Crease) else Crease(*c) for c in creases)
        for i, c in enumerate(cr):  # the face walk indexes vertices by these ids
            if not (0 <= c.v0 < len(verts) and 0 <= c.v1 < len(verts)):
                raise PatternError(f"crease {i} references a missing vertex")
        items = tuple(sorted((extras or {}).items()))
        if faces is None:
            faces = cls(verts, cr, (), items)._walks[0]
        pat = cls(verts, cr, tuple(_canon_cycle(f) for f in faces), items)
        pat.validate()
        return pat

    def __getstate__(self) -> dict:
        # read-only per_pattern results (mapping proxies) do not pickle; a copy recomputes them
        return {k: v for k, v in self.__dict__.items() if k != _MEMO}

    # -- derived structure ------------------------------------------------

    @cached_property
    def vertices_array(self) -> np.ndarray:
        a = np.array(self.vertices, dtype=float).reshape(-1, 2)
        a.setflags(write=False)
        return a

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Crease ids incident to each vertex."""
        inc: list[list[int]] = [[] for _ in self.vertices]
        for i, c in enumerate(self.creases):
            inc[c.v0].append(i)
            inc[c.v1].append(i)
        return tuple(tuple(v) for v in inc)

    def other_end(self, crease_id: int, vertex: int) -> int:
        c = self.creases[crease_id]
        if c.v0 == vertex:
            return c.v1
        if c.v1 == vertex:
            return c.v0
        raise PatternError(f"crease {crease_id} not incident to vertex {vertex}")

    def crease_azimuth(self, crease_id: int, vertex: int) -> float:
        """Azimuth of a crease as seen from one of its endpoints."""
        w = self.other_end(crease_id, vertex)
        d = self.vertices_array[w] - self.vertices_array[vertex]
        return math.atan2(d[1], d[0])

    @cached_property
    def _sorted_incidence(self) -> tuple[tuple[tuple[float, int, int], ...], ...]:
        """Per vertex: (azimuth, crease id, neighbor vertex), counterclockwise."""
        out = []
        for v in range(len(self.vertices)):
            items = []
            for ci in self.incident[v]:
                w = self.other_end(ci, v)
                items.append((self.crease_azimuth(ci, v), ci, w))
            items.sort()
            out.append(tuple(items))
        return tuple(out)

    @cached_property
    def _walks(self) -> tuple[dict[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], ...]]:
        """Walk every face of the planar embedding once.

        Arriving at a vertex, a walk leaves along the next crease clockwise,
        so it traces the face on the left of each half-edge: interior faces
        come out counterclockwise, with positive area.  Returns the interior
        faces, sorted, as vertex cycle -> crease id of each side (side k runs
        from cycle[k] to cycle[k+1]), and the vertex cycles of the other
        walks (the outer face).  Cycles start at their lowest vertex id.
        """
        nxt: dict[tuple[int, int], tuple[int, int]] = {}
        crease_of: dict[tuple[int, int], int] = {}
        for v, items in enumerate(self._sorted_incidence):
            k = len(items)
            for j in range(k):
                w = items[j][2]
                nxt[(w, v)] = (v, items[(j - 1) % k][2])
                crease_of[(v, w)] = items[j][1]
        faces = {}
        outer = []
        seen: set[tuple[int, int]] = set()
        for he in sorted(nxt):
            if he in seen:
                continue
            cycle, sides = [], []
            cur = he
            while cur not in seen:
                seen.add(cur)
                cycle.append(cur[0])
                sides.append(crease_of[cur])
                cur = nxt[cur]
            if cur != he:
                raise PatternError("embedding walk failed to close a face")
            k = cycle.index(min(cycle))
            cycle, sides = tuple(cycle[k:] + cycle[:k]), tuple(sides[k:] + sides[:k])
            if polygon_area(self.vertices_array[list(cycle)]) > 0:
                faces[cycle] = sides
            else:
                outer.append(cycle)
        return dict(sorted(faces.items())), tuple(sorted(outer))

    @cached_property
    def face_creases(self) -> tuple[tuple[int, ...], ...]:
        """Crease id on each side of each face; side k runs from faces[f][k] to faces[f][k+1]."""
        walked = self._walks[0]
        if sorted(self.faces) != list(walked):
            raise PatternError("stored faces disagree with the planar embedding")
        return tuple(walked[f] for f in self.faces)

    @cached_property
    def crease_faces(self) -> tuple[tuple[int | None, int | None], ...]:
        """(left, right) face id of each crease directed v0 -> v1; None on the outer side."""
        out: list[list[int | None]] = [[None, None] for _ in self.creases]
        for fi, (cycle, sides) in enumerate(zip(self.faces, self.face_creases)):
            for a, ci in zip(cycle, sides):
                out[ci][self.creases[ci].v0 != a] = fi
        return tuple(map(tuple, out))

    @cached_property
    def outer_cycle(self) -> tuple[int, ...]:
        """Vertex cycle of the outer face, clockwise from its lowest vertex id."""
        outer = self._walks[1]
        if len(outer) != 1:
            raise PatternError("pattern boundary is not a single cycle")
        return outer[0]

    @cached_property
    def boundary_vertices(self) -> frozenset[int]:
        """Vertices on the outer face."""
        if not self.creases:
            return frozenset(range(len(self.vertices)))
        return frozenset(v for cycle in self._walks[1] for v in cycle)

    def is_interior(self, vertex: int) -> bool:
        return vertex not in self.boundary_vertices

    @cached_property
    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(len(self.vertices)) if self.is_interior(v))

    @cached_property
    def interior_creases(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.creases) if c.assignment != "B")

    @cached_property
    def interior_stars(self) -> tuple[VertexStar, ...]:
        """Star of each interior vertex, aligned with interior_vertices."""
        return tuple(vertex_star(self, v) for v in self.interior_vertices)

    @cached_property
    def face_tree(self) -> FaceTree:
        """The face tree folding carries placements along, each face's creases taken by id."""
        if not self.faces:
            raise PatternError("pattern has no faces to fold")
        sides = self.crease_faces
        seen = [False] * len(self.faces)
        seen[0] = True
        order, rows = [0], []
        for f in order:
            for ci in sorted(self.face_creases[f]):
                lf, rf = sides[ci]
                other = rf if lf == f else lf
                if other is None or seen[other]:
                    continue
                seen[other] = True
                rows.append((other, f, ci, lf == other))
                order.append(other)
        if not all(seen):
            raise PatternError("face adjacency graph is disconnected")
        tree = {ci for _, _, ci, _ in rows}
        off_tree = tuple(
            ci for ci, (lf, rf) in enumerate(sides) if lf is not None and rf is not None and ci not in tree
        )
        return FaceTree(tuple(rows), off_tree)

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        n = len(self.vertices)
        if n == 0:
            if self.creases or self.faces:
                raise PatternError("creases or faces without vertices")
            return
        pts = self.vertices_array
        seen_pairs = set()
        for i, c in enumerate(self.creases):
            if not (0 <= c.v0 < n and 0 <= c.v1 < n):
                raise PatternError(f"crease {i} references a missing vertex")
            if c.v0 == c.v1:
                raise PatternError(f"crease {i} is a loop")
            if c.assignment not in ASSIGNMENTS:
                raise PatternError(f"crease {i} has unknown assignment {c.assignment!r}")
            key = (min(c.v0, c.v1), max(c.v0, c.v1))
            if key in seen_pairs:
                raise PatternError(f"duplicate crease between vertices {key}")
            seen_pairs.add(key)
            if np.linalg.norm(pts[c.v1] - pts[c.v0]) < GEOMETRY_TOL:
                raise PatternError(f"crease {i} has zero length")
            if c.fold_angle is not None and abs(c.fold_angle) > math.pi + GEOMETRY_TOL:
                raise PatternError(f"crease {i} fold angle outside [-pi, pi]")

        # Planarity: creases may meet only at shared endpoints.
        for i in range(len(self.creases)):
            a = self.creases[i]
            for j in range(i + 1, len(self.creases)):
                b = self.creases[j]
                if {a.v0, a.v1} & {b.v0, b.v1}:
                    continue
                if segments_intersect(pts[a.v0], pts[a.v1], pts[b.v0], pts[b.v1]):
                    raise PatternError(f"creases {i} and {j} cross: non-planar embedding")

        if self.creases:
            # Connectivity: each component of a planar graph has its own
            # outer walk, so the creases are connected exactly when one is.
            if len(self._walks[1]) > 1:
                raise PatternError("crease graph is disconnected")

            # Faces must match the embedding (face_creases checks them).
            for ci, (c, sides) in enumerate(zip(self.creases, self.crease_faces)):
                got = sum(f is not None for f in sides)
                want = 1 if c.assignment == "B" else 2
                if got != want:
                    raise PatternError(
                        f"crease {ci} ({c.assignment}) borders {got} faces, expected {want}"
                    )


# -- vertex analysis --------------------------------------------------------


def vertex_star(pattern: CreasePattern, vertex: int) -> VertexStar:
    """Sector angles around a vertex in counterclockwise order."""
    items = pattern._sorted_incidence[vertex]
    if not items:
        raise PatternError(f"vertex {vertex} has no incident creases")
    k = len(items)
    interior = pattern.is_interior(vertex)
    az = [it[0] for it in items]
    ids = [it[1] for it in items]
    if interior:
        start = ids.index(min(ids))
        order = [(start + j) % k for j in range(k)]
        sectors = tuple(angle_ccw(az[order[j]], az[order[(j + 1) % k]]) for j in range(k))
        return VertexStar(vertex, sectors, tuple(ids[j] for j in order), True)

    # Boundary vertex: drop the gap that belongs to the outer region and start
    # the listing just after it.  The wedge from az[j] to az[j+1] is the face
    # left of the half-edge leaving along items[j].
    gap_face = [
        pattern.crease_faces[ci][pattern.creases[ci].v0 != vertex] is not None for ci in ids
    ]
    if all(gap_face):
        # Can happen for flat 180-degree boundary runs; treat the largest gap as exterior.
        gap_face[max(range(k), key=lambda j: angle_ccw(az[j], az[(j + 1) % k]))] = False
    start = (gap_face.index(False) + 1) % k
    order = [(start + j) % k for j in range(k)]
    sectors = tuple(
        angle_ccw(az[order[j]], az[order[j + 1]]) for j in range(k - 1)
    )
    return VertexStar(vertex, sectors, tuple(ids[j] for j in order), False)


def kawasaki_residual(star: VertexStar) -> float:
    """Absolute alternating sector sum; zero for flat-foldable interior vertices."""
    if not star.interior:
        raise PatternError("Kawasaki residual requires an interior vertex")
    if star.degree % 2 != 0:
        raise PatternError("Kawasaki residual requires an even-degree vertex")
    alt = sum(s if i % 2 == 0 else -s for i, s in enumerate(star.sectors))
    return abs(alt)


def is_flat_foldable_deg4(star: VertexStar) -> bool:
    """True for an interior degree-4 vertex whose opposite sectors sum to pi."""
    if not star.interior or star.degree != 4:
        return False
    s = star.sectors
    return abs(s[0] + s[2] - math.pi) <= GEOMETRY_TOL and abs(s[1] + s[3] - math.pi) <= GEOMETRY_TOL
