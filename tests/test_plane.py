import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmoduli import (
    GraphError,
    TropicalPolynomial,
    newton_subdivision,
    render_svg,
    tropical_curve,
)


def line_poly(a=0, b=0, c=0):
    # valuations of x, y, and the constant term
    return TropicalPolynomial.from_terms([((1, 0), a), ((0, 1), b), ((0, 0), c)])


def point_on_curve(curve, p):
    """Exact geometric membership in the cell complex."""
    z, w = Fraction(p[0]), Fraction(p[1])
    for i, j in curve.segments:
        a, b = curve.vertices[i], curve.vertices[j]
        cross = (b[0] - a[0]) * (w - a[1]) - (b[1] - a[1]) * (z - a[0])
        if (
            cross == 0
            and min(a[0], b[0]) <= z <= max(a[0], b[0])
            and min(a[1], b[1]) <= w <= max(a[1], b[1])
        ):
            return True
    for ray in curve.rays:
        bx, by = ray.base
        dx, dy = ray.direction
        if dx * (w - by) - dy * (z - bx) != 0:
            continue
        t = (z - bx) / dx if dx != 0 else (w - by) / dy
        if t >= 0:
            return True
    return False


def random_support(rng, size, planar=True):
    while True:
        support = set()
        while len(support) < size:
            support.add((rng.randint(-4, 4), rng.randint(-4, 4)))
        support = sorted(support)
        if not planar or size < 3:
            return support
        (x0, y0) = support[0]
        if any(
            (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0) != 0
            for (x1, y1) in support
            for (x2, y2) in support
        ):
            return support


def random_poly(rng, size, planar=True):
    support = random_support(rng, size, planar=planar)
    return TropicalPolynomial.from_terms(
        [(e, Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))) for e in support]
    )


class TestEvaluation:
    def test_line_at_origin(self):
        value, achievers = line_poly().evaluate((Fraction(0), Fraction(0)))
        assert value == 0
        assert achievers == {(1, 0), (0, 1), (0, 0)}

    def test_line_in_positive_quadrant(self):
        value, achievers = line_poly().evaluate((Fraction(2), Fraction(3)))
        assert value == 0
        assert achievers == {(0, 0)}

    def test_single_term_always_achieves(self):
        f = TropicalPolynomial.from_terms([((2, 1), Fraction(7, 3))])
        value, achievers = f.evaluate((Fraction(-5), Fraction(11)))
        assert value == Fraction(7, 3) + 2 * -5 + 11
        assert achievers == {(2, 1)}

    def test_contains(self):
        assert line_poly().contains((Fraction(0), Fraction(0)))
        assert not line_poly().contains((Fraction(2), Fraction(3)))
        single = TropicalPolynomial.from_terms([((1, 1), 0)])
        assert not single.contains((Fraction(0), Fraction(0)))


class TestCurves:
    def test_tropical_line(self):
        curve = tropical_curve(line_poly())
        assert curve.vertices == ((Fraction(0), Fraction(0)),)
        assert curve.segments == ()
        assert {r.direction for r in curve.rays} == {(1, 0), (0, 1), (-1, -1)}
        assert all(r.base == (0, 0) and r.base_vertex == 0 for r in curve.rays)

    def test_tripod_with_shifted_vertex(self):
        curve = tropical_curve(line_poly(0, 0, 1))
        assert curve.vertices == ((Fraction(1), Fraction(1)),)
        assert {r.direction for r in curve.rays} == {(1, 0), (0, 1), (-1, -1)}

    def test_monomial_gives_empty_curve(self):
        curve = tropical_curve(TropicalPolynomial.from_terms([((3, 2), 5)]))
        assert curve.is_empty()

    def test_two_term_full_line(self):
        curve = tropical_curve(
            TropicalPolynomial.from_terms([((1, 1), 0), ((0, 0), 1)])
        )
        assert curve.vertices == ()
        assert len(curve.rays) == 2
        d1, d2 = (r.direction for r in curve.rays)
        assert (d1[0] + d2[0], d1[1] + d2[1]) == (0, 0)
        assert curve.rays[0].base == curve.rays[1].base

    def test_tropical_lines_exercise(self):
        rng = random.Random(5)
        for _ in range(50):
            a = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
            b = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
            c = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
            curve = tropical_curve(line_poly(a, b, c))
            assert curve.vertices == ((c - a, c - b),)
            assert {r.direction for r in curve.rays} == {(1, 0), (0, 1), (-1, -1)}


class TestNewtonSubdivision:
    def test_line_single_triangle(self):
        sub = newton_subdivision(line_poly())
        assert sub.faces == ((0, 1, 2),)
        assert sub.segments == ((0, 1), (0, 2), (1, 2))

    def test_generic_heights_on_triangle_do_not_subdivide(self):
        sub = newton_subdivision(line_poly(0, 0, 1))
        assert sub.faces == ((0, 1, 2),)

    def test_two_lifted_points_give_one_segment(self):
        sub = newton_subdivision(
            TropicalPolynomial.from_terms([((1, 1), 0), ((0, 0), 1)])
        )
        assert sub.faces == ()
        assert sub.segments == ((0, 1),)

    def test_faces_tile_the_newton_polygon(self):
        def hull_area_twice(points):
            from tropmoduli.plane import _convex_hull

            hull = _convex_hull(points)
            if len(hull) < 3:
                return Fraction(0)
            area = Fraction(0)
            for k in range(1, len(hull) - 1):
                area += (hull[k][0] - hull[0][0]) * (hull[k + 1][1] - hull[0][1]) - (
                    hull[k + 1][0] - hull[0][0]
                ) * (hull[k][1] - hull[0][1])
            return abs(area)

        rng = random.Random(31)
        for _ in range(60):
            f = random_poly(rng, rng.randint(3, 8))
            sub = newton_subdivision(f)
            total = hull_area_twice(list(sub.support))
            tiled = sum(
                hull_area_twice([sub.support[k] for k in face]) for face in sub.faces
            )
            assert total == tiled


class TestDuality:
    def test_counts_on_random_supports(self):
        rng = random.Random(17)
        for _ in range(80):
            f = random_poly(rng, rng.randint(3, 8))
            curve = tropical_curve(f)
            sub = newton_subdivision(f)
            assert len(curve.vertices) == len(sub.faces)
            from tropmoduli.plane import _convex_hull

            adjacency = {s: 0 for s in sub.segments}
            for face in sub.faces:
                hull = _convex_hull([sub.support[k] for k in face])
                idx = {sub.support[k]: k for k in face}
                for t in range(len(hull)):
                    u, v = idx[hull[t]], idx[hull[(t + 1) % len(hull)]]
                    adjacency[(min(u, v), max(u, v))] += 1
            boundary = sum(1 for count in adjacency.values() if count == 1)
            assert len(curve.rays) == boundary
            from math import gcd

            for ray in curve.rays:
                assert gcd(abs(ray.direction[0]), abs(ray.direction[1])) == 1

    def test_membership_consistency(self):
        rng = random.Random(23)
        polys = [
            line_poly(),
            line_poly(Fraction(1, 2), -2, 3),
            random_poly(rng, 5),
            random_poly(rng, 8),
        ]
        for f in polys:
            curve = tropical_curve(f)
            checked = 0
            while checked < 600:
                p = (
                    Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 5])),
                    Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 5])),
                )
                assert f.contains(p) == point_on_curve(curve, p)
                checked += 1
            # points constructed on cells exercise the membership branch
            for _ in range(400):
                if curve.segments:
                    i, j = curve.segments[rng.randrange(len(curve.segments))]
                    a, b = curve.vertices[i], curve.vertices[j]
                    t = Fraction(rng.randint(0, 16), 16)
                    p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                elif curve.rays:
                    ray = curve.rays[rng.randrange(len(curve.rays))]
                    t = Fraction(rng.randint(0, 32), 2)
                    p = (
                        ray.base[0] + t * ray.direction[0],
                        ray.base[1] + t * ray.direction[1],
                    )
                else:
                    break
                assert f.contains(p)
                assert point_on_curve(curve, p)

    def test_translation_equivariance(self):
        rng = random.Random(29)
        for _ in range(40):
            f = random_poly(rng, rng.randint(3, 7))
            s = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
            t = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
            u = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
            shifted = TropicalPolynomial.from_terms(
                [((i, j), v + i * s + j * t + u) for (i, j), v in f.terms]
            )
            base_curve = tropical_curve(f)
            moved_curve = tropical_curve(shifted)
            delta = (-s, -t)
            assert moved_curve.vertices == tuple(
                sorted((p[0] + delta[0], p[1] + delta[1]) for p in base_curve.vertices)
            )
            assert len(moved_curve.segments) == len(base_curve.segments)
            assert sorted(r.direction for r in moved_curve.rays) == sorted(
                r.direction for r in base_curve.rays
            )


@st.composite
def small_polynomials(draw):
    """1-8 terms in a small box, on a slanted line or on a coordinate axis,
    with valuations from a small set so that ties are common."""
    shape = draw(st.sampled_from(["box", "line", "x-axis", "y-axis"]))
    if shape == "box":
        points = st.tuples(st.integers(-2, 3), st.integers(-2, 3))
    elif shape == "line":
        points = st.integers(-2, 2).map(lambda t: (1 + 2 * t, 3 - t))
    elif shape == "x-axis":
        points = st.integers(-3, 4).map(lambda t: (t, 0))
    else:
        points = st.integers(-3, 4).map(lambda t: (0, t))
    support = draw(st.lists(points, min_size=1, max_size=8, unique=True))
    values = st.sampled_from([Fraction(k, 2) for k in range(-2, 3)])
    return TropicalPolynomial.from_terms([(e, draw(values)) for e in support])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_polynomials())
def test_routes_agree_and_dual_points_tie_their_faces(f):
    curve = tropical_curve(f)  # raises unless both routes give this curve
    sub = newton_subdivision(f)
    assert len(curve.vertices) == len(sub.faces) == len(sub.dual_points)
    for face, point in zip(sub.faces, sub.dual_points):
        _, achievers = f.evaluate(point)
        assert achievers == {sub.support[k] for k in face}
    touching = [len(faces) for faces in sub.segment_faces]
    assert len(curve.segments) == touching.count(2)
    assert len(curve.rays) == touching.count(1) + 2 * touching.count(0)


class TestValidationAndOutput:
    def test_duplicate_exponent_rejected(self):
        with pytest.raises(GraphError):
            TropicalPolynomial.from_terms([((1, 0), 0), ((1, 0), 1)])

    def test_empty_support_rejected(self):
        with pytest.raises(GraphError):
            TropicalPolynomial.from_terms([])

    def test_json_parsing(self):
        f = TropicalPolynomial.from_json_dict(
            {"terms": [{"i": 1, "j": 0, "val": "0"}, {"i": 0, "j": 0, "val": "t^2"}]}
        )
        assert f.terms == (((0, 0), Fraction(2)), ((1, 0), Fraction(0)))

    def test_curve_json_shape(self):
        data = tropical_curve(line_poly()).to_json_dict()
        assert data["vertices"] == [["0", "0"]]
        assert {tuple(r["dir"]) for r in data["rays"]} == {(1, 0), (0, 1), (-1, -1)}
        assert all(r["base"] == ["0", "0"] for r in data["rays"])

    def test_svg_render(self):
        svg = render_svg(tropical_curve(line_poly()))
        assert svg.startswith("<svg")
        assert svg.count("<line") == 3
        assert "<circle" in svg
