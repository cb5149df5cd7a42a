import json

import pytest

from tropmoduli import cli
from tropmoduli.cli import dispatch
from tropmoduli.errors import ResourceBoundExceeded


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--genus", "1", "--markings", "1", "--format", "dot"
        )
        assert code == 0
        assert out.count("graph type") == 2

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
        assert 'label="5"' in out

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
        "model",
        [
            {"components": [{"id": 0, "genus": 1.5}], "nodes": [], "markings": [0]},
            {"components": [{"id": [0], "genus": 1}], "nodes": [], "markings": []},
            {"components": [{"id": "a", "genus": 0}], "nodes": [], "markings": "aaa"},
        ],
        ids=["float-genus", "list-id", "markings-string"],
    )
    def test_malformed_model_is_domain_error(self, capsys, tmp_path, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "tropicalize-model", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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
        "term",
        [
            {"i": 1.5, "j": 0, "val": "0"},
            {"i": 1, "j": 0, "val": "abc"},
            {"i": 1, "j": 0, "val": 0.5},
        ],
        ids=["float-exponent", "text-value", "float-value"],
    )
    def test_malformed_term_is_domain_error(self, capsys, tmp_path, term):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"terms": [term, {"i": 0, "j": 0, "val": "0"}]}))
        code, out, err = run(capsys, "tropicalize-plane", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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
    if case == "missing-directory":
        return tmp_path / "missing" / "x.json", "No such file or directory"
    (tmp_path / "out").mkdir()
    return tmp_path / "out", "Is a directory"


class TestUnwritableOutput:
    @pytest.mark.parametrize("case", ["missing-directory", "directory"])
    def test_homology_output_refused_before_work(
        self, capsys, tmp_path, monkeypatch, case
    ):
        monkeypatch.setattr(cli.homology_mod, "reduced_homology", _refuse_work)
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

    @pytest.mark.parametrize("case", ["missing-directory", "directory"])
    def test_plane_svg_refused_before_work(self, capsys, tmp_path, monkeypatch, case):
        monkeypatch.setattr(cli, "tropical_curve", _refuse_work)
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

        monkeypatch.setattr(cli.homology_mod, "reduced_homology", failing_work)
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
