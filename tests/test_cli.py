import contextlib
import dataclasses
import hashlib
import json
import resource
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tropmoduli import INF, WeightedMarkedGraph, build_poset, cli, complexes, enumeration, graphs
from tropmoduli import homology, plane
from tropmoduli.cli import dispatch
from tropmoduli.errors import ResourceBoundExceeded
from tropmoduli.rationals import format_rational

from oracles import reference_complex_json, reference_enumerate_json
from test_metric import valid_models


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _two_components(length):
    return {
        "components": [{"id": 0, "genus": 0}, {"id": 1, "genus": 0}],
        "nodes": [{"a": 0, "b": 1, "length": length}],
        "markings": [0, 0, 1, 1],
    }


class TestEnumerateCommand:
    def test_json_output(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--genus", "2", "--markings", "0", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 7
        assert data["f_vector"] == [1, 2, 2, 2]
        assert len(data["types"]) == 7

    def test_json_round_trip_is_fixed_point(self, capsys):
        from tropmoduli import WeightedMarkedGraph

        code, out, _ = run(capsys, "enumerate", "--genus", "1", "--markings", "2")
        data = json.loads(out)
        reparsed = [
            WeightedMarkedGraph.from_json_dict(t).to_json_dict()
            for t in data["types"]
        ]
        assert reparsed == data["types"]

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--genus", "2", "--markings", "0", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["edges,count", "0,1", "1,2", "2,2", "3,2"]

    def test_csv_counts_orbits_without_the_labelled_catalog(self, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("CSV output must not label the catalog")

        monkeypatch.setattr(enumeration, "enumerate_types", refused)
        _, out, _ = run(
            capsys, "enumerate", "--genus", "2", "--markings", "0", "--format", "csv"
        )
        assert out.splitlines() == ["edges,count", "0,1", "1,2", "2,2", "3,2"]
        code, out, _ = run(
            capsys, "enumerate", "--genus", "2", "--markings", "4", "--format", "csv",
            "--threads", "2",
        )
        assert code == 0
        counts = (1, 20, 134, 526, 1262, 1794, 1406, 465)
        assert out.splitlines() == ["edges,count"] + [f"{e},{c}" for e, c in enumerate(counts)]

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--genus", "1", "--markings", "1", "--format", "dot"
        )
        assert code == 0
        assert out == (
            "graph type0 {\n"
            '  v0 [shape=circle, label="1"];\n'
            '  m1 [shape=none, label="1"];\n'
            "  v0 -- m1 [style=dashed];\n"
            "}\n"
            "graph type1 {\n"
            '  v0 [shape=circle, label="0"];\n'
            '  m1 [shape=none, label="1"];\n'
            "  v0 -- m1 [style=dashed];\n"
            "  v0 -- v0;\n"
            "}\n"
        )

    def test_unstable_range_is_domain_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--genus", "0", "--markings", "2")
        assert code == 1
        assert "2g - 2 + n > 0" in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--genus", "2")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--genus", "2", "--markings", "0", "--bogus")
        assert code == 2


class TestComplexCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "complex", "--genus", "1", "--markings", "2")
        assert code == 0
        data = json.loads(out)
        assert data["link_dimension"] == 1
        assert data["num_cells"] == 4
        assert all(len(f) == 3 for f in data["faces"])
        covers = build_poset(1, 2).covers
        assert data["faces"] == [[p - 1, c - 1, e] for p, c, e in covers]

    def test_point_has_empty_link(self, capsys):
        code, out, _ = run(capsys, "complex", "--genus", "0", "--markings", "3")
        assert code == 0
        data = json.loads(out)
        assert data["link_dimension"] == -1
        assert data["num_cells"] == 0

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "complex", "--genus", "1", "--markings", "2", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph hasse {")

    def test_contraction_outside_catalog_is_internal_error(
        self, capsys, tmp_path, monkeypatch
    ):
        # (1, 2) without type 1: edge 0 of type 3, type 2 once type 1 is
        # gone, is the first contraction to land on it
        enumerate_types = complexes.enumerate_types

        def without_type_one(g, n):
            catalog = enumerate_types(g, n)
            keys = catalog.keys[:1] + catalog.keys[2:]
            return dataclasses.replace(catalog, keys=keys)

        monkeypatch.setattr(complexes, "enumerate_types", without_type_one)
        code, out, err = run(capsys, "complex", "--genus", "1", "--markings", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "edge 0 of type 2" in err and "outside the catalog" in err
        target = tmp_path / "x.json"
        target.write_text("kept\n")
        code, out, err = run(
            capsys,
            "complex",
            "--genus", "1", "--markings", "2",
            "--output", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target.read_text() == "kept\n"


def _stdout_and_file(capsys, tmp_path, *argv):
    """The bytes a command prints to stdout, and those it writes to --output."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "out.json"
    code, empty, _ = run(capsys, *argv, "--output", str(target))
    assert code == 0 and empty == ""
    return out.encode(), target.read_bytes()


class TestStreamedJson:
    """The catalog-sized JSON is written in pieces; its bytes must equal the
    whole payload dumped by json.dumps, as the CLI once printed it."""

    @pytest.mark.parametrize(
        "g,n", [(0, 3), (0, 5), (1, 1), (1, 2), (2, 0), (2, 3), (3, 0)]
    )
    def test_complex_bytes_match_payload_dump(self, capsys, tmp_path, g, n):
        expected = reference_complex_json(g, n).encode()
        out, written = _stdout_and_file(
            capsys, tmp_path, "complex", "--genus", str(g), "--markings", str(n)
        )
        assert out == expected
        assert written == expected

    def test_cases_cover_empty_lists_and_face_batches(self):
        assert build_poset(0, 3).covers == ()
        assert build_poset(2, 0).n == 0
        assert len(build_poset(2, 3).covers) > cli._FACE_BATCH

    @pytest.mark.parametrize("g,n", [(1, 1), (0, 5), (2, 0), (2, 2)])
    def test_enumerate_bytes_match_payload_dump(self, capsys, tmp_path, g, n):
        expected = reference_enumerate_json(g, n).encode()
        out, written = _stdout_and_file(
            capsys, tmp_path, "enumerate", "--genus", str(g), "--markings", str(n)
        )
        assert out == expected
        assert written == expected


class _CountingSink:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


class TestOutputMemory:
    def test_complex_json_peak_is_a_few_documents(self):
        # the (2,3) document is 513,155 bytes; a payload tree dumped whole
        # peaks near 12 times that, the streamed output below 3 times
        document = 513_155
        sink = _CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = dispatch(["complex", "--genus", "2", "--markings", "3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.chars == document
        assert peak < 4 * document


class TestHomologyCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "homology", "--genus", "1", "--markings", "3")
        assert code == 0
        data = json.loads(out)
        assert data["betti"] == [0, 0, 1]
        assert data["chain_ranks"] == [5, 7, 4]
        assert data["euler"] == 1
        assert data["top_weight"]["3"] == 1

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "homology", "--genus", "1", "--markings", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degree,chain_rank,betti"
        assert lines[-1] == "2,4,1"

    def test_top_weight_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "homology",
            "--genus", "1", "--markings", "4",
            "--format", "csv", "--top-weight",
        )
        assert code == 0
        assert "4,3" in out.splitlines()

    def test_generator_cap(self, capsys):
        code, out, err = run(
            capsys,
            "homology",
            "--genus", "1", "--markings", "4",
            "--max-generators", "5",
        )
        assert code == 1
        assert "generators" in err

    def test_negative_cap_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "homology",
            "--genus", "1", "--markings", "3",
            "--max-generators", "-5",
        )
        assert code == 2
        assert out == ""
        assert "--max-generators: expected a nonnegative integer, got '-5'" in err
        assert "over the cap" not in err

    def test_negative_threads_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "homology",
            "--genus", "1", "--markings", "3",
            "--threads", "-3",
        )
        assert code == 2
        assert out == ""
        assert "--threads: expected a nonnegative integer, got '-3'" in err

    def test_uncapped(self, capsys):
        code, out, _ = run(
            capsys,
            "homology",
            "--genus", "1", "--markings", "3",
            "--max-generators", "0",
        )
        assert code == 0

    def test_huge_genus_is_refused_before_the_sweep(self):
        # its first expansion alone would try 10**20 weight splits; a
        # separate process with a timeout keeps a regression from hanging
        result = subprocess.run(
            [sys.executable, "-m", "tropmoduli.cli", "homology",
             "--genus", str(10**20 - 1), "--markings", "1"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: (g, n) = ({10**20 - 1}, 1) needs at least {10**20 - 1} "
            "generators, its one-edge cells alone, over the cap of 20000\n"
        )


class TestTropicalizeModelCommand:
    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "components": [{"id": 0, "genus": 0}, {"id": 1, "genus": 0}],
                    "nodes": [{"a": 0, "b": 1, "length": "5"}],
                    "markings": [0, 0, 1, 1],
                }
            )
        )
        return str(path)

    def test_json_output(self, capsys, model_file):
        code, out, _ = run(capsys, "tropicalize-model", model_file)
        assert code == 0
        data = json.loads(out)
        assert data["lengths"] == ["5"]
        assert data["volume"] == "5"
        assert data["extended"] is False

    def test_normalize_volume(self, capsys, model_file):
        code, out, _ = run(
            capsys, "tropicalize-model", model_file, "--normalize-volume"
        )
        data = json.loads(out)
        assert data["lengths"] == ["1"]
        assert data["volume"] == "1"

    def test_dot_output(self, capsys, model_file):
        code, out, _ = run(
            capsys, "tropicalize-model", model_file, "--format", "dot"
        )
        assert code == 0
        assert out == (
            "graph Gamma {\n"
            '  v0 [shape=circle, label="0"];\n'
            '  v1 [shape=circle, label="0"];\n'
            + "".join(
                f'  m{k} [shape=none, label="{k}"];\n  v{v} -- m{k} [style=dashed];\n'
                for k, v in [(1, 0), (2, 0), (3, 1), (4, 1)]
            )
            + '  v0 -- v1 [label="5"];\n'
            "}\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "tropicalize-model", "/nonexistent/model.json")
        assert code == 1

    def test_malformed_json_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "tropicalize-model", str(path))
        assert code == 1
        assert "not valid JSON" in err

    @pytest.mark.parametrize(
        "model,field",
        [
            ({"components": [{"id": 0, "genus": 1.5}], "nodes": [], "markings": [0]}, "genus"),
            ({"components": [{"id": [0], "genus": 1}], "nodes": [], "markings": []}, "id"),
            (
                {"components": [{"id": "a", "genus": 0}], "nodes": [], "markings": "aaa"},
                "'markings' must be a list",
            ),
            ({"nodes": [], "markings": []}, "missing field 'components'"),
            ([1], "JSON object with a 'components' list"),
            (
                {"components": {"id": 0}, "nodes": [], "markings": []},
                "'components' must be a list",
            ),
            (
                {"components": [{"id": 0, "genus": 0}], "nodes": 3, "markings": []},
                "'nodes' must be a list",
            ),
            (
                {"components": [1], "nodes": [], "markings": []},
                "'components' entry must be an object",
            ),
            ({"components": [{"id": 0}], "nodes": [], "markings": []}, "missing field 'genus'"),
        ],
        ids=[
            "float-genus",
            "list-id",
            "markings-string",
            "missing-components",
            "top-level-list",
            "components-object",
            "nodes-number",
            "component-number",
            "missing-genus",
        ],
    )
    def test_malformed_model_is_domain_error(self, capsys, tmp_path, model, field):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "tropicalize-model", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    def test_unstable_model(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "components": [{"id": 0, "genus": 1}],
                    "nodes": [],
                    "markings": [],
                }
            )
        )
        code, _, err = run(capsys, "tropicalize-model", str(path))
        assert code == 1
        assert "not stable" in err

    def test_exponent_length_is_refused_at_once(self, tmp_path):
        # Fraction("1e999999999") would build 10**999999999; a separate
        # process with a timeout keeps a regression from hanging the suite
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_two_components("1e999999999")))
        result = subprocess.run(
            [sys.executable, "-m", "tropmoduli.cli", "tropicalize-model", str(path)],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "not a rational: '1e999999999'" in result.stderr


_ORIGIN = {"i": 0, "j": 0, "val": "0"}


class TestTropicalizePlaneCommand:
    @pytest.fixture
    def poly_file(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(
            json.dumps(
                {
                    "terms": [
                        {"i": 1, "j": 0, "val": "0"},
                        {"i": 0, "j": 1, "val": "0"},
                        {"i": 0, "j": 0, "val": "0"},
                    ]
                }
            )
        )
        return str(path)

    def test_json_output(self, capsys, poly_file):
        code, out, _ = run(capsys, "tropicalize-plane", poly_file)
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == [["0", "0"]]
        assert len(data["rays"]) == 3
        assert data["newton_faces"] == [[0, 1, 2]]

    def test_svg_output(self, capsys, poly_file, tmp_path):
        svg_path = tmp_path / "curve.svg"
        code, out, _ = run(
            capsys, "tropicalize-plane", poly_file, "--svg", str(svg_path)
        )
        assert code == 0
        assert svg_path.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "poly,message",
        [
            ({"terms": [{"i": 1.5, "j": 0, "val": "0"}, _ORIGIN]}, "exponents must be integers"),
            ({"terms": [{"i": 1, "j": 0, "val": "abc"}, _ORIGIN]}, "not a rational"),
            ({"terms": [{"i": 1, "j": 0, "val": "t^(5/2"}, _ORIGIN]}, "not a rational"),
            ({"terms": [{"i": 1, "j": 0, "val": "t^5/2)"}, _ORIGIN]}, "not a rational"),
            ({"terms": [{"i": 1, "j": 0, "val": 0.5}, _ORIGIN]}, "refusing float"),
            ([1], "JSON object with a 'terms' list"),
            ({}, "missing field 'terms'"),
            ({"terms": {"i": 1, "j": 0, "val": "0"}}, "'terms' must be a list"),
            ({"terms": ["x", _ORIGIN]}, "'terms' entry must be an object"),
            ({"terms": [{"i": 1, "j": 0}, _ORIGIN]}, "missing field 'val'"),
        ],
        ids=[
            "float-exponent",
            "text-value",
            "unclosed-monomial",
            "unopened-monomial",
            "float-value",
            "top-level-list",
            "missing-terms",
            "terms-object",
            "term-string",
            "missing-val",
        ],
    )
    def test_malformed_term_is_domain_error(self, capsys, tmp_path, poly, message):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(poly))
        code, out, err = run(capsys, "tropicalize-plane", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_conic_builds_one_subdivision(self, capsys, tmp_path, monkeypatch):
        # heights i^2 + ij + j^2 cut the conic's support into four unit
        # triangles, so the curve has four vertices and six rays
        poly = tmp_path / "conic.json"
        heights = {(2, 0): 4, (1, 1): 3, (0, 2): 4, (1, 0): 1, (0, 1): 1, (0, 0): 0}
        terms = [{"i": i, "j": j, "val": str(v)} for (i, j), v in heights.items()]
        poly.write_text(json.dumps({"terms": terms}))
        calls = []
        original = plane.newton_subdivision

        def counted(f):
            calls.append(f)
            return original(f)

        monkeypatch.setattr(plane, "newton_subdivision", counted)
        svg = tmp_path / "conic.svg"
        code, out, _ = run(capsys, "tropicalize-plane", str(poly), "--svg", str(svg))
        assert code == 0
        assert len(calls) == 1
        # the bytes printed while the subdivision was still built twice
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "87a74d64ee73c944e85bf4c7ccd04edd430e43bb4f0de65bed8da101d8335fc0"
        )
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "74be7ac7827603bea3435066cfd84e53296d54dfbf079f257caba8f2a2e698ba"
        )

    @pytest.mark.parametrize(
        "term,viewport",
        [
            ({"i": 1, "j": 0, "val": "1" + "0" * 400}, None),
            ({"i": 10**200, "j": 0, "val": "0"}, None),
            ({"i": 1, "j": 0, "val": "0"}, "-1e-320,-1e-320,1e-320,1e-320"),
            ({"i": 1, "j": 0, "val": "0"}, "-1e308,-1e308,1.7e308,1e308"),
        ],
        ids=["huge-valuation", "huge-exponent", "subnormal-viewport", "overflowing-span"],
    )
    def test_svg_without_finite_pixels_is_refused(self, capsys, tmp_path, term, viewport):
        poly = tmp_path / "poly.json"
        rest = [{"i": 0, "j": 1, "val": "0"}, {"i": 0, "j": 0, "val": "0"}]
        poly.write_text(json.dumps({"terms": [term] + rest}))
        svg = tmp_path / "x.svg"
        argv = ["tropicalize-plane", str(poly), "--svg", str(svg)]
        if viewport is not None:
            argv.append(f"--viewport={viewport}")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not svg.exists()

    def test_bad_viewport(self, capsys, poly_file, tmp_path):
        svg = tmp_path / "x.svg"
        for flag, value, code in [
            ("--viewport", "0,0,0,0", 1),
            ("--viewport", "nan,nan,nan,nan", 1),
            ("--viewport", "0,0,inf,5", 1),
            ("--size", "-100", 2),
        ]:
            exit_code, out, err = run(
                capsys, "tropicalize-plane", poly_file, "--svg", str(svg), flag, value
            )
            assert exit_code == code, value
            assert out == ""
            assert not svg.exists()
            assert flag.lstrip("-") in err.splitlines()[-1]


_LEAF = (
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.text(max_size=6)
    | st.sampled_from(["1/2", "-2", "t^3", "t^(1/2)", "0.5", "inf"])
)
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_SMALL = st.integers(0, 2) | _JSON  # often a valid id, genus or exponent


def _records(**fields):
    return st.lists(st.fixed_dictionaries(fields), max_size=4)


# Documents shaped like a model or a polynomial reach past the first
# missing field into the parsers and the computations.
_DOCUMENTS = (
    st.fixed_dictionaries(
        {
            "components": _records(id=_SMALL, genus=_SMALL),
            "nodes": _records(a=_SMALL, b=_SMALL, length=_LEAF),
            "markings": st.lists(_SMALL, max_size=5),
        }
    )
    | st.fixed_dictionaries({"terms": _records(i=_SMALL, j=_SMALL, val=_LEAF)})
    | _JSON
)
# Python before 3.10.7 has no limit on integer string conversion
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_DIGITS == 0, reason="no limit on integer string conversion")
class TestResultsPastTheDigitLimit:
    """Inputs with exactly the largest number of digits Python converts are
    accepted; a result that outgrows them is refused with one error line."""

    NINES = "9" * _DIGITS

    def test_plane_vertex_is_refused_before_the_svg(self, capsys, tmp_path):
        # the three terms tie at x = -2 * 9...9, one digit too many
        poly = tmp_path / "poly.json"
        terms = [
            {"i": 0, "j": 0, "val": "-" + self.NINES},
            {"i": 1, "j": 0, "val": self.NINES},
            {"i": 0, "j": 1, "val": "0"},
        ]
        poly.write_text(json.dumps({"terms": terms}))
        svg = tmp_path / "x.svg"
        for extra in ([], ["--svg", str(svg)]):
            code, out, err = run(capsys, "tropicalize-plane", str(poly), *extra)
            assert code == 1
            assert out == ""
            assert err == f"error: an exact result has more than {_DIGITS} digits\n"
            assert not svg.exists()

    def test_model_volume_is_refused(self, capsys, tmp_path):
        # each length prints, but their sum 3 * 9...9 does not
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps(
                {
                    "components": [{"id": 0, "genus": 0}, {"id": 1, "genus": 0}],
                    "nodes": [{"a": 0, "b": 1, "length": self.NINES}] * 3,
                    "markings": [],
                }
            )
        )
        code, out, err = run(capsys, "tropicalize-model", str(model))
        assert code == 1
        assert out == ""
        assert err == f"error: an exact result has more than {_DIGITS} digits\n"


_ARCH = {"i": 1, "j": 0, "val": "0"}, {"i": 0, "j": 1, "val": "0"}


class TestFuzzedJson:
    """No JSON document gives a traceback: each run exits 0, or 1 with a
    single error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tropicalize-model", "--normalize-volume"],
            ["tropicalize-plane", "--svg"],
        ],
        ids=["model", "plane"],
    )
    @settings(
        max_examples=250,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(value=_DOCUMENTS)
    @example(value=_two_components("5"))
    @example(value=_two_components("1e999999999"))
    @example(value=_two_components("1e-999999999"))
    @example(value={"terms": [{"i": 1, "j": 0, "val": "1e999999999"}, *_ARCH]})
    @example(value={"terms": [{"i": 2, "j": 0, "val": "1" + "0" * 400}, *_ARCH]})
    @example(value={"terms": [{"i": 10**200, "j": 0, "val": "0"}, *_ARCH]})
    def test_exit_is_zero_or_one_error_line(self, capsys, tmp_path, argv, value):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(value))
        command, flag = argv
        extra = [flag, str(tmp_path / "out.svg")] if flag == "--svg" else [flag]
        code, _, err = run(capsys, command, str(path), *extra)
        assert code in (0, 1)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)


def _model_document(model):
    return {
        "components": [{"id": c, "genus": w} for c, w in model.components],
        "nodes": [
            {"a": a, "b": b, "length": format_rational(length)}
            for a, b, length in model.nodes
        ],
        "markings": list(model.markings),
    }


class TestValidModels:
    """Models valid by construction go through the CLI: the drawn graph and
    lengths come back, and --normalize-volume refuses exactly the models
    without a finite positive volume."""

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=valid_models())
    def test_tropicalize_model(self, capsys, tmp_path, drawn):
        model, graph = drawn
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_model_document(model)))
        code, out, err = run(capsys, "tropicalize-model", str(path))
        assert (code, err) == (0, "")
        data = json.loads(out)
        read_back = WeightedMarkedGraph.from_json_dict(data["graph"])
        assert read_back.canonical_key() == graph.canonical_key()
        lengths = [length for _, _, length in model.nodes]
        assert data["lengths"] == [format_rational(length) for length in lengths]
        code, out, err = run(capsys, "tropicalize-model", str(path), "--normalize-volume")
        if lengths and INF not in lengths:
            assert (code, err) == (0, "")
            assert json.loads(out)["volume"] == "1"
        else:
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1


class TestUnreadableJson:
    @pytest.mark.parametrize("command", ["tropicalize-model", "tropicalize-plane"])
    @pytest.mark.parametrize(
        "payload",
        [b'{"terms": "\xff\xfe"}', b"[" * 100_000, b"1" * 5_000],
        ids=["not-utf8", "deep-nesting", "huge-integer"],
    )
    def test_one_error_line(self, capsys, tmp_path, command, payload):
        path = tmp_path / "input.json"
        path.write_bytes(payload)
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not valid JSON" in err


class TestOutputFile:
    def test_write_to_path(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys,
            "enumerate",
            "--genus", "1", "--markings", "1",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["count"] == 2


def _refuse_work(*args, **kwargs):
    raise AssertionError("the computation started before the output was checked")


def _unwritable(tmp_path, case):
    """A path under tmp_path that cannot be written, and the expected error."""
    if case == "empty":
        return "", "No such file or directory"
    if case == "missing-directory":
        return tmp_path / "missing" / "x.json", "No such file or directory"
    (tmp_path / "out").mkdir()
    return tmp_path / "out", "Is a directory"


class TestUnwritableOutput:
    @pytest.mark.parametrize("case", ["missing-directory", "directory", "empty"])
    def test_homology_output_refused_before_work(
        self, capsys, tmp_path, monkeypatch, case
    ):
        monkeypatch.setattr(homology, "reduced_homology", _refuse_work)
        monkeypatch.chdir(tmp_path)
        target, message = _unwritable(tmp_path, case)
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(
            capsys,
            "homology",
            "--genus", "1", "--markings", "6",
            "--output", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and str(target) in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("case", ["missing-directory", "directory", "empty"])
    def test_plane_svg_refused_before_work(self, capsys, tmp_path, monkeypatch, case):
        monkeypatch.setattr(plane, "newton_subdivision", _refuse_work)
        monkeypatch.chdir(tmp_path)
        poly = tmp_path / "poly.json"
        terms = [{"i": 1, "j": 0, "val": "0"}, {"i": 0, "j": 0, "val": "0"}]
        poly.write_text(json.dumps({"terms": terms}))
        target, message = _unwritable(tmp_path, case)
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(
            capsys, "tropicalize-plane", str(poly), "--svg", str(target)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and str(target) in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("exists", [False, True])
    def test_output_untouched_until_the_work_succeeds(
        self, capsys, tmp_path, monkeypatch, exists
    ):
        target = tmp_path / "x.json"
        if exists:
            target.write_text("kept\n")

        def failing_work(*args, **kwargs):
            assert target.exists() == exists
            raise ResourceBoundExceeded("over the cap")

        monkeypatch.setattr(homology, "reduced_homology", failing_work)
        code, out, err = run(
            capsys,
            "homology",
            "--genus", "1", "--markings", "3",
            "--output", str(target),
        )
        assert code == 1
        assert err == "error: over the cap\n"
        assert target.exists() == exists
        if exists:
            assert target.read_text() == "kept\n"


class TestGoldenOutput:
    # exact bytes are part of the external contract
    def test_enumerate_golden(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--genus", "1", "--markings", "1")
        assert json.loads(out) == {
            "g": 1,
            "n": 1,
            "count": 2,
            "f_vector": [1, 1],
            "types": [
                {
                    "vertices": [{"id": 0, "weight": 1}],
                    "edges": [],
                    "markings": [0],
                },
                {
                    "vertices": [{"id": 0, "weight": 0}],
                    "edges": [[0, 0]],
                    "markings": [0],
                },
            ],
        }

    def test_homology_golden(self, capsys):
        _, out, _ = run(capsys, "homology", "--genus", "1", "--markings", "3")
        assert json.loads(out) == {
            "g": 1,
            "n": 3,
            "chain_ranks": [5, 7, 4],
            "betti": [0, 0, 1],
            "euler": 1,
            "top_weight": {"3": 1, "4": 0, "5": 0, "6": 0},
        }

    def test_complex_dot_golden(self, capsys):
        _, out, _ = run(
            capsys, "complex", "--genus", "1", "--markings", "2", "--format", "dot"
        )
        assert out == (
            "digraph hasse {\n"
            "  rankdir=BT;\n"
            '  t0 [shape=box, label="#0: 0e g1"];\n'
            '  t1 [shape=box, label="#1: 1e g1"];\n'
            '  t2 [shape=box, label="#2: 1e g1"];\n'
            '  t3 [shape=box, label="#3: 2e g1"];\n'
            '  t4 [shape=box, label="#4: 2e g1"];\n'
            "  t0 -> t1;\n"
            "  t0 -> t2;\n"
            "  t1 -> t3;\n"
            "  t2 -> t3;\n"
            "  t2 -> t4;\n"
            "}\n"
        )

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("json", "ae35154db38bc12f7bd4e76ebe9de2a3364fae84d334805d13904cd27663e815"),
            ("dot", "b06e830e5cd147b58147ddb3ade2b79373ce87f9b5340495a7170e301a315d3a"),
        ],
    )
    def test_complex_digest(self, capsys, fmt, digest):
        _, out, _ = run(
            capsys, "complex", "--genus", "2", "--markings", "3", "--format", fmt
        )
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestHugeMarkings:
    """A marking count that no tuple can hold is refused in one line, before
    any list of markings is built."""

    @pytest.mark.parametrize(
        "command,fmt",
        [("enumerate", "csv"), ("enumerate", "json"), ("complex", "json"),
         ("complex", "dot"), ("homology", "json")],
    )
    def test_refused_in_one_line(self, capsys, command, fmt):
        code, out, err = run(
            capsys, command, "--genus", "1", "--markings", str(10**20), "--format", fmt
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"error: (g, n) = (1, {10**20}): more than {sys.maxsize} markings "
            "do not fit in memory\n"
        )

    def test_billion_markings_are_refused_before_the_sweep(self):
        # the sweep's first tuple of 10**9 markings alone takes 8 GB; under a
        # 1 GB address-space limit a regression fails with MemoryError
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        result = subprocess.run(
            [sys.executable, "-m", "tropmoduli.cli", "homology",
             "--genus", "1", "--markings", str(10**9)],
            capture_output=True,
            text=True,
            timeout=30,
            preexec_fn=limit_memory,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: (g, n) = (1, {10**9}) needs at least {10**9} generators, "
            "its one-edge cells alone, over the cap of 20000\n"
        )

    def test_genus_zero_cap_refuses_three_thousand_markings_at_once(self, capsys):
        code, out, err = run(capsys, "homology", "--genus", "0", "--markings", "3000")
        assert code == 1
        assert out == ""
        assert err == (
            "error: (g, n) = (0, 3000) needs at least 2**2999 - 3001 generators, "
            "the splits alone, over the cap of 20000\n"
        )


class TestAutomorphismsOncePerType:
    def test_commands_search_no_automorphism_again(self, capsys, monkeypatch):
        # each catalog keeps the groups its own search found, so neither the
        # edge groups of complex JSON nor the orbit sizes search again; a
        # graph's automorphisms are the only other entry into the search
        def refused(*args, **kwargs):
            raise AssertionError("the catalog keeps every group")

        monkeypatch.setattr(graphs.WeightedMarkedGraph, "automorphisms", refused)
        code, out, err = run(capsys, "complex", "--genus", "4", "--markings", "1")
        assert code == 0, err
        cells = json.loads(out)["cells"]
        assert (len(cells), max(c["edge_group_order"] for c in cells)) == (2665, 120)
        code, out, err = run(capsys, "homology", "--genus", "2", "--markings", "4")
        assert code == 0, err
        assert json.loads(out)["betti"] == [0, 0, 0, 0, 0, 1, 3]
        code, out, err = run(
            capsys, "enumerate", "--genus", "2", "--markings", "4", "--format", "csv"
        )
        assert code == 0, err
        assert sum(int(line.split(",")[1]) for line in out.splitlines()[1:]) == 5608


class TestDeterminism:
    def test_bytes_stable_across_threads(self, capsys):
        outputs = set()
        for threads in ["1", "4", "8"]:
            _, out, _ = run(
                capsys,
                "homology",
                "--genus", "1", "--markings", "3",
                "--threads", threads,
            )
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize(
        "name,value,expected",
        [
            ("THREADS", "abc", "expected an integer, got 'abc'"),
            ("MAX_GENERATORS", "x", "expected an integer, got 'x'"),
            ("THREADS", "-3", "expected a nonnegative integer, got '-3'"),
        ],
    )
    def test_malformed_env_var_is_usage_error(self, capsys, monkeypatch, name, value, expected):
        monkeypatch.setenv(f"TROPMODULI_{name}", value)
        code, out, err = run(capsys, "homology", "--genus", "1", "--markings", "3")
        assert code == 2
        assert out == ""
        assert err == f"error: TROPMODULI_{name}: {expected}\n"

    @pytest.mark.parametrize(
        "command,formats",
        [("enumerate", "json, dot, csv"), ("homology", "json, csv")],
    )
    def test_unknown_env_format_is_usage_error(self, capsys, monkeypatch, command, formats):
        monkeypatch.setenv("TROPMODULI_FORMAT", "xml")
        code, out, err = run(capsys, command, "--genus", "1", "--markings", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: TROPMODULI_FORMAT: expected one of {formats}, got 'xml'\n"

    def test_env_var_mirrors_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPMODULI_FORMAT", "csv")
        code, out, _ = run(capsys, "enumerate", "--genus", "2", "--markings", "0")
        assert code == 0
        assert out.startswith("edges,count")

    def test_empty_output_env_var_means_stdout(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPMODULI_OUTPUT", "")
        code, out, err = run(
            capsys, "enumerate", "--genus", "2", "--markings", "0", "--format", "csv"
        )
        assert code == 0
        assert out.startswith("edges,count")
        assert err == ""
