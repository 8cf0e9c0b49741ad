"""Command-line interface behavior and report determinism."""

from __future__ import annotations

import pytest

from rotsys import make_embedding, theta
from rotsys.cli import main
from rotsys.formats import write_embedding


@pytest.fixture
def theta5_file(tmp_path, theta5_systems):
    path = tmp_path / "theta5_2.emb"
    path.write_text(write_embedding(theta5_systems[10], "theta5_2"))
    return str(path)


class TestBasicCommands:
    def test_genus(self, theta5_file, capsys):
        assert main(["genus", theta5_file]) == 0
        out = capsys.readouterr().out
        assert "n=2 edges=5 faces=1 genus=2" in out

    def test_faces(self, theta5_file, capsys):
        assert main(["faces", theta5_file]) == 0
        out = capsys.readouterr().out
        assert "face 0 (length 10)" in out

    def test_word(self, theta5_file, capsys):
        assert main(["word", theta5_file]) == 0
        assert capsys.readouterr().out.strip() == "a+b+c+d+e+a-b-c-d-e-"

    def test_classify(self, tmp_path, theta5_systems, capsys):
        path = tmp_path / "all.emb"
        path.write_text(
            "".join(write_embedding(e, f"sys{g}") for g, e in sorted(theta5_systems.items()))
        )
        assert main(["classify", str(path), "--mode", "equiv"]) == 0
        out = capsys.readouterr().out
        assert "3 embeddings, 3 equivalence classes" in out

    def test_classify_one_vertex_graph(self, tmp_path, capsys):
        path = tmp_path / "one.emb"
        path.write_text("graph one\nvertices 1\nrot 1:\n")
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 embeddings, 1 iso classes" in out
        assert out.count("genus=0") == 1
        assert "  faces=0  " in out  # one empty face

    def test_missing_file_is_input_error(self, capsys):
        assert main(["genus", "no/such/file.emb"]) == 2

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.emb"
        bad.write_text("graph x\nvertices 2\nedge 1 1 1\nrot 1: 1 1\nrot 2:\n")
        assert main(["genus", str(bad)]) == 2


class TestEnumerate:
    def test_theta5(self, capsys):
        assert main(["enumerate", "--graph", "theta(5)", "--genus", "2", "--mode", "equiv"]) == 0
        out = capsys.readouterr().out
        assert "3 equivalence classes" in out
        assert "(0 orientable + 3 non-orientable)" in out

    def test_one_face_filter(self, capsys):
        assert main(["enumerate", "--graph", "theta(5)", "--one-face", "--mode", "equiv"]) == 0
        assert "3 equivalence classes" in capsys.readouterr().out

    def test_genus_and_one_face_together(self, capsys):
        args = ["enumerate", "--graph", "complete(5)", "--one-face", "--mode", "equiv"]
        assert main(args + ["--genus", "2"]) == 2
        assert "error: genus 2 forces f = 3, not 1" in capsys.readouterr().err
        assert main(args + ["--genus", "3"]) == 0
        assert "13 equivalence classes" in capsys.readouterr().out

    def test_distribution_when_no_filter(self, capsys):
        assert main(["enumerate", "--graph", "complete_bipartite(3,3)"]) == 0
        out = capsys.readouterr().out
        assert "genus 1: 2 classes" in out
        assert "genus 2: 1 classes" in out

    def test_budget_error(self, capsys):
        assert main(["enumerate", "--graph", "petersen", "--genus", "1", "--budget", "5"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_bad_graph_spec(self, capsys):
        assert main(["enumerate", "--graph", "nope(1)", "--genus", "0"]) == 2

    def test_disconnected_graph_is_input_error(self, capsys):
        for spec in ("complement(complete(4))", "complement(complete_bipartite(3,3))"):
            assert main(["enumerate", "--graph", spec]) == 2
            assert "error:" in capsys.readouterr().err


class TestPipelinesAndTheta:
    def test_pipeline_k5(self, capsys):
        assert main(["pipeline", "k5"]) == 0
        out = capsys.readouterr().out
        assert "K5-uv: 60 iso, 39 (21 orientable + 18 non-orientable)" in out
        assert "K5: 45 iso, 31 (14 orientable + 17 non-orientable)" in out

    def test_pipeline_k33(self, capsys):
        assert main(["pipeline", "k33"]) == 0
        assert "K33 classes: 1" in capsys.readouterr().out

    def test_theta(self, capsys):
        assert main(["theta", "--m", "5", "--genus", "2"]) == 0
        assert "3 iso classes" in capsys.readouterr().out

    def test_theta_without_edges_is_input_error(self, capsys):
        assert main(["theta", "--m", "0", "--genus", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyAndConvert:
    def test_verify_pass_exit_zero(self, capsys):
        assert main(["verify", "--suite", "theta-question"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "theta(3) torus classes\t1\t1\tPASS" in out

    def test_verify_deterministic_bytes(self, capsys):
        assert main(["verify", "--suite", "k33"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "k33"]) == 0
        assert capsys.readouterr().out == first

    def test_convert_round_trip(self, tmp_path, capsys):
        from importlib import resources

        src = resources.files("rotsys.data").joinpath("appendix_b.txt").read_text()
        f = tmp_path / "b.txt"
        f.write_text(src)
        assert main(["convert", "appendixB", str(f)]) == 0
        out = capsys.readouterr().out
        assert out.count("graph K5#") == 13
        from rotsys.formats import parse_named_embeddings

        docs = parse_named_embeddings(out)
        assert len(docs) == 13
