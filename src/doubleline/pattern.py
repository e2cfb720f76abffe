"""Planar crease patterns: data model, validation, vertex stars.

A crease pattern is a planar straight-line graph embedded in the plane,
with creases labeled mountain ("M"), valley ("V"), boundary ("B") or
unassigned ("U"), plus the list of faces the creases bound.  Coordinates
are dimensionless pattern units.  All angles are radians.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .geometry import angle_ccw, polygon_area, segments_intersect

ASSIGNMENTS = ("M", "V", "B", "U")
GEOMETRY_TOL = 1e-9  # shortest crease length; slack on angle bounds and sector sums

T = TypeVar("T")
_MEMO = "_per_pattern"  # the instance attribute holding per_pattern results
# Cached tables of the embedding alone (vertices and crease endpoints), and
# those that read the faces too; CreasePattern._copy shares them.
_EMBEDDING = ("vertices_array", "incident", "_ccw_creases", "_walks",
              "boundary_vertices", "interior_vertices", "_stars", "interior_stars")
_FACE_TABLES = ("face_creases", "crease_faces", "face_tree")


class PatternError(ValueError):
    """Raised for invalid or inconsistent crease patterns."""


def per_pattern(fn: Callable[["CreasePattern"], T]) -> Callable[["CreasePattern"], T]:
    """A function of the pattern alone, run once per pattern instance.

    The result is kept on the instance, as the cached properties are: the
    pattern is immutable.  Every copy starts with none of these results:
    the ones ``set_extra``, ``write_record`` and ``fix_mode`` make, which
    share only the embedding's tables (``CreasePattern._copy``), and
    pickled and copied patterns.  A call that raises keeps nothing, so it
    raises again on the next call.  Callers share the result, so it must be
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
    """Sector angles around one interior vertex, counterclockwise.

    The listing starts at the incident crease with the lowest id and has as
    many sectors as creases; sectors[i] lies between crease_ids[i] and
    crease_ids[i+1].
    """

    vertex: int
    sectors: tuple[float, ...]
    crease_ids: tuple[int, ...]

    @classmethod
    def from_sectors(cls, sectors: Sequence[float]) -> "VertexStar":
        """Synthetic interior star at vertex 0 from raw sector angles (used heavily in tests)."""
        sectors = tuple(float(s) for s in sectors)
        if abs(sum(sectors) - 2.0 * math.pi) > 1e-9:
            raise PatternError("sector angles of an interior vertex must sum to 2*pi")
        return cls(vertex=0, sectors=sectors, crease_ids=tuple(range(len(sectors))))

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

    Construct through :meth:`build`, which checks each crease, extracts
    faces from the planar embedding when they are not supplied, then checks
    the creases together and against the faces.  The embedding is walked
    once: the copies that keep the vertices and crease endpoints (build's
    own, ``set_extra``'s and ``fix_mode``'s relabel) share its tables.
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
        pat = cls(verts, cr, (), tuple(sorted((extras or {}).items())))
        pts = pat.vertices_array
        seen_pairs = set()
        for i, c in enumerate(cr):  # each crease alone, before the face walk, which needs them simple
            if not (0 <= c.v0 < len(verts) and 0 <= c.v1 < len(verts)):
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
        if faces is None:
            faces = pat._walks[0]
        pat = pat._copy(faces=tuple(_canon_cycle(f) for f in faces))

        # Planarity: creases may meet only at shared endpoints.
        for i in range(len(cr)):
            a = cr[i]
            for j in range(i + 1, len(cr)):
                b = cr[j]
                if {a.v0, a.v1} & {b.v0, b.v1}:
                    continue
                if segments_intersect(pts[a.v0], pts[a.v1], pts[b.v0], pts[b.v1]):
                    raise PatternError(f"creases {i} and {j} cross: non-planar embedding")

        # Connectivity: each component of a planar graph has its own outer
        # walk, so the creases are connected exactly when one is.
        if len(pat._walks[1]) > 1:
            raise PatternError("crease graph is disconnected")

        # Faces must match the embedding, with or without creases (crease_faces checks them).
        for ci, (c, sides) in enumerate(zip(cr, pat.crease_faces)):
            got = sum(f is not None for f in sides)
            want = 1 if c.assignment == "B" else 2
            if got != want:
                raise PatternError(f"crease {ci} ({c.assignment}) borders {got} faces, expected {want}")
        return pat

    def _copy(self, **changes) -> "CreasePattern":
        """``dataclasses.replace`` for changes that keep the vertices and every crease's endpoints.

        The copy shares the embedding's tables computed so far, and the face
        tables too where the faces are equal; its per_pattern results and
        interior_creases, which reads the labels, start empty.
        """
        new = replace(self, **changes)
        keep = _EMBEDDING + (_FACE_TABLES if new.faces == self.faces else ())
        new.__dict__.update({k: self.__dict__[k] for k in keep if k in self.__dict__})
        return new

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
    def _ccw_creases(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex: incident crease ids, counterclockwise by azimuth."""
        return tuple(tuple(sorted(inc, key=lambda ci: (self.crease_azimuth(ci, v), ci)))
                     for v, inc in enumerate(self.incident))

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
        for v, ids in enumerate(self._ccw_creases):
            ends = [self.other_end(ci, v) for ci in ids]
            for j, (ci, w) in enumerate(zip(ids, ends)):
                nxt[(w, v)] = (v, ends[j - 1])
                crease_of[(v, w)] = ci
        faces = {}
        outer = []
        seen: set[tuple[int, int]] = set()
        for he in sorted(nxt):
            if he in seen:
                continue
            cycle, sides = [], []
            cur = he
            while cur not in seen:  # simple creases make nxt a permutation: the walk returns to he
                seen.add(cur)
                cycle.append(cur[0])
                sides.append(crease_of[cur])
                cur = nxt[cur]
            k = cycle.index(min(cycle))
            cycle, sides = tuple(cycle[k:] + cycle[:k]), tuple(sides[k:] + sides[:k])
            if polygon_area([self.vertices[v] for v in cycle]) > 0:
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
        return frozenset(v for cycle in self._walks[1] for v in cycle)

    @cached_property
    def interior_vertices(self) -> tuple[int, ...]:
        """Vertices with creases off the outer face; an isolated vertex is neither this nor boundary."""
        return tuple(v for v, ids in enumerate(self.incident) if ids and v not in self.boundary_vertices)

    @cached_property
    def interior_creases(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.creases) if c.assignment != "B")

    @cached_property
    def _stars(self) -> dict[int, VertexStar]:
        """Star of each interior vertex by id, in interior_vertices order: the one table of stars."""
        stars = {}
        for v in self.interior_vertices:
            ids = self._ccw_creases[v]
            k = ids.index(min(ids))
            ids = ids[k:] + ids[:k]
            az = [self.crease_azimuth(ci, v) for ci in ids]
            stars[v] = VertexStar(v, tuple(angle_ccw(a, b) for a, b in zip(az, az[1:] + az[:1])), ids)
        return stars

    @cached_property
    def interior_stars(self) -> tuple[VertexStar, ...]:
        """Star of each interior vertex, aligned with interior_vertices."""
        return tuple(self._stars.values())

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
        """Raise PatternError where build refuses these vertices, creases and faces (see build)."""
        type(self).build(self.vertices, self.creases, self.faces, dict(self.extras))


# -- vertex analysis --------------------------------------------------------


def vertex_star(pattern: CreasePattern, vertex: int) -> VertexStar:
    """The star of an interior vertex, read from the pattern's table of them."""
    star = pattern._stars.get(vertex)
    if star is None:
        raise PatternError(f"vertex {vertex} is not an interior vertex")
    return star


def breadth_first_tree(pattern: CreasePattern, root: int,
                       joins: Callable[[int, int], bool]) -> tuple[tuple[int, int, int], ...]:
    """(vertex, parent, crease) rows of the breadth-first tree from root, in visiting order.

    A vertex's neighbours are taken as sorted (neighbour, crease) pairs, each
    crossed, if not yet reached, when joins(crease, neighbour) holds.
    """
    order, rows = [root], []
    seen = {root}
    for u in order:
        for w, ci in sorted((pattern.other_end(ci, u), ci) for ci in pattern.incident[u]):
            if w not in seen and joins(ci, w):
                seen.add(w)
                rows.append((w, u, ci))
                order.append(w)
    return tuple(rows)


def kawasaki_residual(star: VertexStar) -> float:
    """Absolute alternating sector sum; zero for flat-foldable interior vertices."""
    if star.degree % 2 != 0:
        raise PatternError("Kawasaki residual requires an even-degree vertex")
    alt = sum(s if i % 2 == 0 else -s for i, s in enumerate(star.sectors))
    return abs(alt)


def is_flat_foldable_deg4(star: VertexStar) -> bool:
    """True for a degree-4 vertex whose opposite sectors sum to pi."""
    if star.degree != 4:
        return False
    s = star.sectors
    return abs(s[0] + s[2] - math.pi) <= GEOMETRY_TOL and abs(s[1] + s[3] - math.pi) <= GEOMETRY_TOL
