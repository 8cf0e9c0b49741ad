"""Command-line interface behavior and report determinism."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import rotsys
from rotsys import make_embedding, theta
from rotsys.cli import build_parser, main
from rotsys.enumeration import DEFAULT_BUDGET
from rotsys.formats import write_embedding
from rotsys.suites import SUITE_NAMES, run_suite


@pytest.fixture
def theta5_file(tmp_path, theta5_systems):
    path = tmp_path / "theta5_2.emb"
    path.write_text(write_embedding(theta5_systems[10], "theta5_2"))
    return str(path)


def class_ids(out: str) -> list[str]:
    """The ids of the ``class <id> ...`` lines of a command's output."""
    return [line.split()[1] for line in out.splitlines() if line.startswith("class ")]


class TestBasicCommands:
    def test_genus(self, theta5_file, capsys):
        assert main(["genus", theta5_file]) == 0
        out = capsys.readouterr().out
        assert "n=2 edges=5 faces=1 genus=2" in out

    def test_faces(self, theta5_file, capsys):
        assert main(["faces", theta5_file]) == 0
        out = capsys.readouterr().out
        assert "face 0 (length 10)" in out
        assert "       vertices 1 2 1 2 1 2 1 2 1 2\n" in out

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

    def test_classify_stream_sets(self, tmp_path, capsys, stream_sets):
        # Appendix A twice and appendix B: 75 documents in 44 classes.  One
        # pass keys each document once and takes one more stream set per
        # distinct key, for its reversal, in either mode; no class is keyed
        # again.
        files = {}
        for fmt, name in (("appendixA", "appendix_a.txt"), ("appendixB", "appendix_b.txt")):
            table = tmp_path / name
            table.write_text(resources.files("rotsys.data").joinpath(name).read_text())
            assert main(["convert", fmt, str(table)]) == 0
            files[fmt] = tmp_path / f"{fmt}.emb"
            files[fmt].write_text(capsys.readouterr().out)
        args = ["classify", str(files["appendixA"]), str(files["appendixA"]), str(files["appendixB"])]
        for mode, first in (("iso", "75 embeddings, 44 iso classes"), ("equiv", "75 embeddings, 44 equivalence classes")):
            status, sets = stream_sets(lambda: main(args + ["--mode", mode]))
            assert (status, sets) == (0, 119)
            assert capsys.readouterr().out.splitlines()[0] == first

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

    def test_one_embedding_per_file_names_the_file(self, tmp_path, theta5_systems, capsys):
        # faces, genus and word read exactly one document from their file.
        two = tmp_path / "two.emb"
        two.write_text(write_embedding(theta5_systems[2], "a") + write_embedding(theta5_systems[5], "b"))
        for command in ("faces", "genus", "word"):
            assert main([command, str(two)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: line 1: {two}: expected one embedding, found 2\n"


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

    def test_negative_genus_is_input_error(self, capsys):
        assert main(["enumerate", "--graph", "complete(5)", "--genus", "-1"]) == 2
        assert capsys.readouterr().err == "error: genus -1 is negative\n"

    def test_distribution_when_no_filter(self, capsys):
        assert main(["enumerate", "--graph", "complete_bipartite(3,3)"]) == 0
        out = capsys.readouterr().out
        assert "genus 1: 2 classes" in out
        assert "genus 2: 1 classes" in out

    def test_distribution_lines(self, capsys):
        # Every field of the three lines: the space, then per genus the
        # chirality split, the iso count, the group multiset and the systems.
        assert main(["enumerate", "--graph", "complete_bipartite(3,3)"]) == 0
        assert capsys.readouterr().out == (
            "graph complete_bipartite(3,3): rotation systems 64\n"
            "genus 1: 2 classes (0 orientable + 2 non-orientable, 2 iso), groups 18^1,2^1, systems 40\n"
            "genus 2: 1 classes (0 orientable + 1 non-orientable, 1 iso), groups 3^1, systems 24\n"
        )

    def test_budget_error(self, capsys):
        assert main(["enumerate", "--graph", "petersen", "--genus", "1", "--budget", "5"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_class_ids_tell_classes_apart(self, capsys):
        # All 19 classes share the key's first 8 bytes.
        assert main(["enumerate", "--graph", "wheel(5)", "--genus", "1"]) == 0
        ids = class_ids(capsys.readouterr().out)
        assert len(ids) == len(set(ids)) == 19

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_output_pipe_ends_quietly(self, unbuffered):
        # The reader closes the pipe before anything is written, so every
        # write finds it gone: each print when unbuffered, otherwise the
        # flush of the buffer.  No error line, no traceback and no warning
        # at interpreter exit; the status is that of a SIGPIPE ending.
        env = {**os.environ, "PYTHONPATH": str(Path(rotsys.__file__).parents[1]), "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "rotsys.cli", "enumerate", "--graph", "wheel(5)", "--genus", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_bad_graph_spec(self, capsys):
        assert main(["enumerate", "--graph", "nope(1)", "--genus", "0"]) == 2

    def test_wrong_argument_count_is_input_error(self, capsys):
        assert main(["enumerate", "--graph", "complete", "--genus", "1"]) == 2
        assert "error: wrong number of arguments for complete" in capsys.readouterr().err

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
        ids = class_ids(out)
        assert len(ids) == len(set(ids)) == 31

    def test_pipeline_k33(self, capsys):
        assert main(["pipeline", "k33"]) == 0
        assert "K33 classes: 1" in capsys.readouterr().out

    def test_theta(self, capsys):
        assert main(["theta", "--m", "5", "--genus", "2"]) == 0
        assert "3 iso classes" in capsys.readouterr().out

    def test_theta_without_edges_is_input_error(self, capsys):
        assert main(["theta", "--m", "0", "--genus", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_theta_negative_genus_is_input_error(self, capsys):
        assert main(["theta", "--m", "3", "--genus", "-1"]) == 2
        assert capsys.readouterr().err == "error: genus -1 is negative\n"

    def test_theta_budget_refusal_names_the_pinned_subspace(self, capsys):
        # The theta budget bounds the 6! orders of the second vertex, not
        # theta(7)'s whole space of 6!^2 = 518,400 systems.
        assert main(["theta", "--m", "7", "--genus", "3", "--budget", "100"]) == 2
        assert capsys.readouterr().err == "error: pinned subspace has 720 systems, budget is 100\n"


class TestVerifyAndConvert:
    def test_verify_pass_exit_zero(self, capsys):
        assert main(["verify", "--suite", "theta-question"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "theta(3) torus classes\t1\t1\tPASS" in out

    def test_budget_skips_rows_in_two_suites(self, capsys):
        # torus-table and theta-question report a row beyond the budget as SKIP.
        assert main(["verify", "--suite", "torus-table", "--budget", "100"]) == 0
        out = capsys.readouterr().out
        assert "K4,4 torus embeddings\t(skipped)\trotation space has 1679616 systems, budget is 100\tSKIP" in out
        assert "overall: PASS" in out
        assert main(["verify", "--suite", "theta-question", "--budget", "100"]) == 0
        out = capsys.readouterr().out
        assert "theta(7) triple-torus classes\t(skipped)\tpinned subspace has 720 systems, budget is 100\tSKIP" in out
        assert ("theta(2..8) systems per genus = closed form\t(skipped)\t"
                "rotation space has 576 systems, budget is 100\tSKIP") in out

    def test_budget_stops_the_other_suites(self, capsys):
        # core and appendixB stop at the first space beyond the budget.
        for suite, size in (("core", 576), ("appendixB", 7776)):
            assert main(["verify", "--suite", suite, "--budget", "100"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: rotation space has {size} systems, budget is 100\n"

    def test_verify_budget_as_the_other_commands(self, capsys):
        # verify takes --budget with the default and help of enumerate and theta.
        parser = build_parser()
        for argv in (["verify", "--suite", "core"], ["enumerate", "--graph", "theta(3)"],
                     ["theta", "--m", "3", "--genus", "1"]):
            assert parser.parse_args(argv).budget == DEFAULT_BUDGET
            with pytest.raises(SystemExit):
                parser.parse_args([argv[0], "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            assert ("--budget BUDGET max systems addressed, not states expanded: the whole rotation space, "
                    "or for theta(m) the (m - 1)! systems with one vertex pinned") in help_text

    def test_theta_help_names_the_pinned_measure(self, capsys):
        # theta bounds the (m - 1)! systems with one vertex pinned, not theta(m)'s whole space.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["theta", "--help"])
        assert "for theta(m) the (m - 1)! systems with one vertex pinned" in " ".join(capsys.readouterr().out.split())

    def test_verify_deterministic_bytes(self, capsys):
        assert main(["verify", "--suite", "k33"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "k33"]) == 0
        assert capsys.readouterr().out == first

    # The sha256 of each suite's table and TSV, as ``rotsys verify --suite``
    # prints them.  A change that must leave every report byte-identical is
    # checked against these; a change that alters a report updates them and
    # says why.
    REPORT_DIGESTS = {
        "core": ("73728b4519d6ed4f7d2383e48fd8b497fadccd7429d10fa10f4431776389f7e8",
                 "e27b7f81e615695dd52a06d3c2acd28126c1569759ef895a00bd325e0988e7b1"),
        "appendixA": ("3ac5186798b89646559139255e876a5e28e42e182b37e9022b5bc5fdc7494ad0",
                      "352ac9744c9665c0e93d04be3db26a5fd3d0abeb57ec2f5a19d5107fe80f296f"),
        "appendixB": ("e10654dd2348a4a5df4298773f83b32a3cf1e73c365cbfcfef7a3c5e5b7e28c3",
                      "384822e444a602eace386df214a8f94af8cbf7d75b5996cc9a040a1444a1630a"),
        "k33": ("e3e9acf77ad5e8be38f8689961bb886a3a21b63bb30bb88439fad30ab683646d",
                "f4fdae889679e46e8708f2fceef096d7d2b72ffedf455bd440eb51e013b3a23f"),
        "torus-table": ("a47595aae60041ea2b8f0a976225ac91114b119d51533f218e6a9de628f42d30",
                        "74c0d318e8f1edb9b1463aa74f27bed281a181ea09928afb7d1d9930ada3b5ea"),
        # theta-question gained the row of theta(m)'s closed form.
        "theta-question": ("874be4edccabfd71e4b103102d7c533f7ef6ff863cc88fbf4f14cee4cbfe62d3",
                           "702be07518fa3e4a9926c894decf3fc794dc59643b4d70bf10b3bac71d3d83ea"),
    }

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_report_digests(self, suite):
        report = run_suite(suite)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (report.render_table(), report.render_tsv()))
        assert digests == self.REPORT_DIGESTS[suite]

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

    def test_convert_block_without_vertex_lines(self, tmp_path, capsys):
        # A header alone is an input error at its line, in both formats.
        f = tmp_path / "t.txt"
        f.write_text("\nK5#01 (or)\n")
        for fmt in ("appendixA", "appendixB"):
            assert main(["convert", fmt, str(f)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: line 2: block has no vertex lines\n"
