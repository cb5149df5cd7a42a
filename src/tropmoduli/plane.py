"""Tropical plane curves: the min-plus corner locus of a polynomial.

A tropical polynomial is a finite map from exponent pairs to exact rational
valuations; its curve is the locus where the minimum of v(c) + i*z + j*w is
achieved at least twice.  The curve is computed by two independent routes
that must agree cell for cell:

* a bisector arrangement: for every pair of terms, the locus where both
  achieve the global minimum is cut out of their bisector line by the other
  terms' inequalities;
* Newton duality: the lower convex hull of the lifted support induces a
  regular subdivision of the Newton polygon, whose 2-cells, interior edges
  and boundary edges are dual to the curve's vertices, segments and rays.
  The subdivision records each 2-cell's dual point from the plane that
  found it, and the 2-cells each edge bounds from the one walk of their
  hulls, so the dual curve is read off it without solving or walking again.

Everything is exact; the only floating point in this file is in the SVG
renderer, which is a drawing concern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite

from .errors import GraphError, InternalConsistencyError, json_records
from .rationals import format_rational, is_integer, parse_rational

Point = tuple[Fraction, Fraction]
ExponentPair = tuple[int, int]


@dataclass(frozen=True)
class TropicalPolynomial:
    """Finite support in Z^2 with a rational valuation per term."""

    terms: tuple[tuple[ExponentPair, Fraction], ...]  # sorted by exponent

    def __post_init__(self):
        if not self.terms:
            raise GraphError("a tropical polynomial needs at least one term")
        exponents = [e for e, _ in self.terms]
        if len(set(exponents)) != len(exponents):
            raise GraphError("duplicate exponent pair in support")

    @classmethod
    def from_terms(cls, items) -> "TropicalPolynomial":
        cleaned = []
        for (i, j), v in items:
            if not (is_integer(i) and is_integer(j)):
                raise GraphError(f"exponents must be integers, got ({i!r}, {j!r})")
            try:
                cleaned.append(((i, j), parse_rational(v)))
            except ValueError as exc:
                raise GraphError(f"term ({i}, {j}): {exc}") from exc
        return cls(terms=tuple(sorted(cleaned)))

    @classmethod
    def from_json_dict(cls, data) -> "TropicalPolynomial":
        terms = json_records(data, "terms", ("i", "j", "val"), GraphError)
        return cls.from_terms(((i, j), val) for i, j, val in terms)

    def evaluate(self, p: Point):
        """Tropical value at p and the set of exponents achieving it."""
        z, w = Fraction(p[0]), Fraction(p[1])
        best = None
        achievers = []
        for (i, j), v in self.terms:
            value = v + i * z + j * w
            if best is None or value < best:
                best = value
                achievers = [(i, j)]
            elif value == best:
                achievers.append((i, j))
        return best, frozenset(achievers)

    def contains(self, p: Point) -> bool:
        """Kapranov membership: the minimum occurs at least twice."""
        _, achievers = self.evaluate(p)
        return len(achievers) >= 2


@dataclass(frozen=True)
class Ray:
    base: Point
    direction: tuple[int, int]  # primitive integer vector
    base_vertex: int | None  # index into the curve's vertices, if any


@dataclass(frozen=True)
class TropicalPlaneCurve:
    """Corner locus as a 1-dimensional polyhedral complex, byte-stable."""

    vertices: tuple[Point, ...]  # sorted
    segments: tuple[tuple[int, int], ...]  # sorted index pairs into vertices
    rays: tuple[Ray, ...]  # sorted by (base, direction)

    def is_empty(self) -> bool:
        return not (self.vertices or self.segments or self.rays)

    def to_json_dict(self) -> dict:
        def point(p):
            return [format_rational(p[0]), format_rational(p[1])]

        return {
            "vertices": [point(p) for p in self.vertices],
            "segments": [[a, b] for a, b in self.segments],
            "rays": [
                {
                    "base": point(r.base),
                    "base_vertex": r.base_vertex,
                    "dir": list(r.direction),
                }
                for r in self.rays
            ],
        }


@dataclass(frozen=True)
class NewtonSubdivision:
    """Regular subdivision of the Newton polygon from the lifted support.

    faces lists the maximal coplanar sets of the lower hull (2-dimensional
    cells); segments lists the 1-cells, each a pair of support indices.  For
    a support of affine dimension 1 there are no faces and the segments form
    the lower-hull chain.

    dual_points[i] is (-lam, -mu) for the plane h = lam*x + mu*y + nu of
    faces[i]: the curve vertex where exactly the face's terms tie at the
    minimum.  segment_faces[k] lists the indices of the faces segments[k]
    bounds: two inside, one on the boundary, none in affine dimension 1.
    """

    support: tuple[ExponentPair, ...]
    heights: tuple[Fraction, ...]
    faces: tuple[tuple[int, ...], ...]
    segments: tuple[tuple[int, int], ...]
    dual_points: tuple[Point, ...]
    segment_faces: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# small exact-geometry helpers
# ---------------------------------------------------------------------------


def _primitive(dx: int, dy: int) -> tuple[int, int]:
    """The primitive integer vector along a nonzero integer direction."""
    if dx == 0 and dy == 0:
        raise ValueError("zero direction")
    g = gcd(dx, dy)
    return dx // g, dy // g


def _canonical_line(p: Point, dx: int, dy: int):
    """Canonical (base, direction) for a full line through p: the direction
    has positive leading entry and the base sits on a coordinate axis."""
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    z, w = p
    if dx != 0:
        t = -z / dx
        base = (Fraction(0), w + t * dy)
    else:
        t = -w / dy
        base = (z + t * dx, Fraction(0))
    return base, (dx, dy)


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lower_chain(points):
    """Lower monotone chain of points sorted by first coordinate.

    A point that makes no strict left turn is dropped, so collinear points
    interior to a chain edge are dropped too.
    """
    chain = []
    for p in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _convex_hull(points):
    """Andrew monotone chain; returns hull vertices counterclockwise.

    Collinear points interior to hull edges are dropped, which is exactly
    the marked-point convention the duality counting relies on.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    return _lower_chain(pts)[:-1] + _lower_chain(pts[::-1])[:-1]


# ---------------------------------------------------------------------------
# route 1: bisector arrangement
# ---------------------------------------------------------------------------


def _curve_by_bisectors(f: TropicalPolynomial) -> TropicalPlaneCurve:
    terms = f.terms
    m = len(terms)
    if m < 2:
        return TropicalPlaneCurve((), (), ())

    # vertices: equality points of affinely independent triples that reach
    # the global minimum
    vertex_set = set()
    for a, b, c in itertools.combinations(range(m), 3):
        (ia, ja), va = terms[a]
        (ib, jb), vb = terms[b]
        (ic, jc), vc = terms[c]
        det = (ia - ib) * (ja - jc) - (ia - ic) * (ja - jb)
        if det == 0:
            continue
        r1, r2 = vb - va, vc - va
        z = Fraction(r1 * (ja - jc) - r2 * (ja - jb), det)
        w = Fraction((ia - ib) * r2 - (ia - ic) * r1, det)
        p = (z, w)
        if (ia, ja) in f.evaluate(p)[1]:
            vertex_set.add(p)

    segments = set()
    rays = set()
    for a, b in itertools.combinations(range(m), 2):
        (ia, ja), va = terms[a]
        (ib, jb), vb = terms[b]
        di, dj = ia - ib, ja - jb
        rhs = vb - va
        # a point on the bisector and its direction
        if di != 0:
            p0 = (Fraction(rhs, di), Fraction(0))
        else:
            p0 = (Fraction(0), Fraction(rhs, dj))
        dx, dy = -dj, di
        lo, hi = None, None  # parameter bounds along p0 + t*(dx, dy)
        empty = False
        for c in range(m):
            if c in (a, b):
                continue
            (ic, jc), vc = terms[c]
            alpha = (ic - ia) * dx + (jc - ja) * dy
            beta = (vc - va) + (ic - ia) * p0[0] + (jc - ja) * p0[1]
            if alpha == 0:
                if beta < 0:
                    empty = True
                    break
            elif alpha > 0:
                bound = Fraction(-beta, alpha)
                if lo is None or bound > lo:
                    lo = bound
            else:
                bound = Fraction(-beta, alpha)
                if hi is None or bound < hi:
                    hi = bound
        if empty or (lo is not None and hi is not None and lo >= hi):
            continue

        def at(t):
            return (p0[0] + t * dx, p0[1] + t * dy)

        if lo is not None and hi is not None:
            p, q = at(lo), at(hi)
            segments.add((min(p, q), max(p, q)))
        elif lo is not None:
            rays.add((at(lo), _primitive(dx, dy)))
        elif hi is not None:
            rays.add((at(hi), _primitive(-dx, -dy)))
        else:
            base, direction = _canonical_line(p0, *_primitive(dx, dy))
            rays.add((base, direction))
            rays.add((base, (-direction[0], -direction[1])))
    return _assemble(vertex_set, segments, rays)


# ---------------------------------------------------------------------------
# route 2: Newton duality
# ---------------------------------------------------------------------------


def newton_subdivision(f: TropicalPolynomial) -> NewtonSubdivision:
    """Lower convex hull of the lifted support, exactly."""
    support = tuple(e for e, _ in f.terms)
    heights = tuple(v for _, v in f.terms)
    m = len(support)
    duals: dict[tuple[int, ...], Point] = {}  # face -> its dual point
    for a, b, c in itertools.combinations(range(m), 3):
        (xa, ya), (xb, yb), (xc, yc) = support[a], support[b], support[c]
        det = (xb - xa) * (yc - ya) - (xc - xa) * (yb - ya)
        if det == 0:
            continue
        ha, hb, hc = heights[a], heights[b], heights[c]
        # plane h = lam*x + mu*y + nu through the three lifted points
        lam = Fraction((hb - ha) * (yc - ya) - (hc - ha) * (yb - ya), det)
        mu = Fraction((xb - xa) * (hc - ha) - (xc - xa) * (hb - ha), det)
        nu = ha - lam * xa - mu * ya
        on_plane = []
        for k in range(m):
            gap = heights[k] - (lam * support[k][0] + mu * support[k][1] + nu)
            if gap < 0:
                break
            if gap == 0:
                on_plane.append(k)
        else:
            # the face's terms tie at (-lam, -mu), below every other term
            duals.setdefault(tuple(on_plane), (-lam, -mu))
    faces = sorted(duals)
    bounded: dict[tuple[int, int], list[int]] = {}  # segment -> its faces
    for fi, face in enumerate(faces):
        hull = _convex_hull([support[k] for k in face])
        idx = {support[k]: k for k in face}
        for t in range(len(hull)):
            u, v = idx[hull[t]], idx[hull[(t + 1) % len(hull)]]
            bounded.setdefault((min(u, v), max(u, v)), []).append(fi)

    if not faces and m >= 2:
        # support of affine dimension 1: the lower chain of the lifted
        # points along the line, parametrized by whichever coordinate varies
        coord = 0 if len({x for x, _ in support}) > 1 else 1
        lifted = {(support[k][coord], heights[k]): k for k in range(m)}
        chain = [lifted[p] for p in _lower_chain(sorted(lifted))]
        for u, v in zip(chain, chain[1:]):
            bounded[(min(u, v), max(u, v))] = []

    segments = sorted(bounded)
    return NewtonSubdivision(
        support=support,
        heights=heights,
        faces=tuple(faces),
        segments=tuple(segments),
        dual_points=tuple(duals[face] for face in faces),
        segment_faces=tuple(tuple(bounded[s]) for s in segments),
    )


def _curve_by_duality(sub: NewtonSubdivision) -> TropicalPlaneCurve:
    duals = sub.dual_points
    segments = set()
    rays = set()
    for (u, v), touching in zip(sub.segments, sub.segment_faces):
        if len(touching) == 2:
            p, q = duals[touching[0]], duals[touching[1]]
            segments.add((min(p, q), max(p, q)))
        elif len(touching) == 1:
            (xu, yu), (xv, yv) = sub.support[u], sub.support[v]
            dx, dy = yu - yv, xv - xu
            # min convention: the dual ray points along the inward normal
            # of the boundary edge (terms off the edge must stay larger)
            face = [sub.support[k] for k in sub.faces[touching[0]]]
            if sum(dx * (x - xu) + dy * (y - yu) for x, y in face) < 0:
                dx, dy = -dx, -dy
            rays.add((duals[touching[0]], _primitive(dx, dy)))
        else:
            # no adjacent 2-face: 1-dimensional support, dual is a full line
            (iu, ju), (iv, jv) = sub.support[u], sub.support[v]
            di, dj, rhs = iu - iv, ju - jv, sub.heights[v] - sub.heights[u]
            if di != 0:
                p0 = (Fraction(rhs, di), Fraction(0))
            else:
                p0 = (Fraction(0), Fraction(rhs, dj))
            base, direction = _canonical_line(p0, *_primitive(-dj, di))
            rays.add((base, direction))
            rays.add((base, (-direction[0], -direction[1])))
    return _assemble(set(duals), segments, rays)


# ---------------------------------------------------------------------------
# assembly and the public entry point
# ---------------------------------------------------------------------------


def _assemble(vertex_set, segment_set, ray_set) -> TropicalPlaneCurve:
    vertices = tuple(sorted(vertex_set))
    index = {p: i for i, p in enumerate(vertices)}
    segments = []
    for p, q in segment_set:
        if p not in index or q not in index:
            raise InternalConsistencyError(
                f"segment endpoint {p if p not in index else q} is not a vertex"
            )
        a, b = index[p], index[q]
        segments.append((min(a, b), max(a, b)))
    rays = tuple(
        Ray(base=base, direction=direction, base_vertex=index.get(base))
        for base, direction in sorted(ray_set)
    )
    return TropicalPlaneCurve(
        vertices=vertices, segments=tuple(sorted(segments)), rays=rays
    )


def tropical_curve(f: TropicalPolynomial) -> TropicalPlaneCurve:
    """Corner locus of f, computed by both routes and cross-validated."""
    return _tropical_curve(f, newton_subdivision(f))


def _tropical_curve(
    f: TropicalPolynomial, sub: NewtonSubdivision
) -> TropicalPlaneCurve:
    """tropical_curve(f), with the Newton subdivision of f already built."""
    by_bisectors = _curve_by_bisectors(f)
    by_duality = _curve_by_duality(sub)
    if by_bisectors != by_duality:
        raise InternalConsistencyError(
            "bisector arrangement and Newton duality disagree: "
            f"{by_bisectors} vs {by_duality}"
        )
    return by_bisectors


# ---------------------------------------------------------------------------
# SVG rendering (visualization only; floats are fine here)
# ---------------------------------------------------------------------------


def render_svg(
    curve: TropicalPlaneCurve,
    viewport: tuple[float, float, float, float] = (-5.0, -5.0, 5.0, 5.0),
    size: int = 400,
) -> str:
    xmin, ymin, xmax, ymax = (float(v) for v in viewport)
    span_x, span_y = xmax - xmin, ymax - ymin
    scale = size / max(span_x, span_y)

    def num(value) -> float:
        try:
            return float(value)
        except OverflowError:
            raise GraphError("curve coordinates are too large for an SVG") from None

    def to_px(p):
        x = (num(p[0]) - xmin) * scale
        y = size - (num(p[1]) - ymin) * scale
        if not (isfinite(x) and isfinite(y)):
            raise GraphError("viewport gives a curve point no finite SVG position")
        return f"{x:.3f}", f"{y:.3f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for a, b in curve.segments:
        (x1, y1), (x2, y2) = to_px(curve.vertices[a]), to_px(curve.vertices[b])
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="black" stroke-width="2"/>'
        )
    reach = 2.0 * max(span_x, span_y)
    for ray in curve.rays:
        bx, by = num(ray.base[0]), num(ray.base[1])
        dx, dy = ray.direction
        norm = num(dx * dx + dy * dy) ** 0.5
        end = (bx + dx / norm * reach, by + dy / norm * reach)
        (x1, y1), (x2, y2) = to_px((bx, by)), to_px(end)
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="black" stroke-width="2"/>'
        )
    for p in curve.vertices:
        x, y = to_px(p)
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
