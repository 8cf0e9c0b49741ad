"""Native file format and the published table parsers."""

from __future__ import annotations

import pytest

from rotsys import canonical_key, make_embedding, surface_stats, theta
from rotsys.formats import (
    ParseError,
    load_appendix_a,
    load_appendix_b,
    parse_appendix_a,
    parse_appendix_b,
    parse_named_embeddings,
    write_embedding,
)


class TestNativeFormat:
    def test_round_trip_byte_identical(self, theta5_systems):
        for e in theta5_systems.values():
            text = write_embedding(e, "theta5")
            (doc,) = parse_named_embeddings(text)
            back = doc.embedding
            assert back == e
            assert write_embedding(back, "theta5") == text

    def test_loop_rejected(self):
        text = "graph bad\nvertices 2\nedge 1 1 1\nrot 1: 1 1\nrot 2:\n"
        with pytest.raises(ParseError) as err:
            parse_named_embeddings(text)
        assert "loop" in str(err.value)

    def test_endpoint_out_of_range_reported_at_its_edge_line(self):
        text = "graph a\nvertices 2\nedge 1 1 9\nrot 1: 1\nrot 2: 1\n"
        with pytest.raises(ParseError) as err:
            parse_named_embeddings(text)
        assert str(err.value) == "line 3: edge 1 endpoint out of range: (1, 9)"

    def test_duplicate_edge_id_rejected(self):
        text = (
            "graph bad\nvertices 2\nedge 1 1 2\nedge 1 1 2\n"
            "rot 1: 1 1\nrot 2: 1 1\n"
        )
        with pytest.raises(ParseError) as err:
            parse_named_embeddings(text)
        assert "contiguous" in str(err.value)

    def test_missing_rot_line(self):
        text = "graph bad\nvertices 2\nedge 1 1 2\nrot 1: 1\n"
        with pytest.raises(ParseError) as err:
            parse_named_embeddings(text)
        assert "vertex 2" in str(err.value)

    def test_line_numbers_reported(self):
        text = "graph x\nvertices 2\nedge 1 1 2\nwhat 5\n"
        with pytest.raises(ParseError) as err:
            parse_named_embeddings(text)
        assert str(err.value).startswith("line 4:")

    def test_second_vertices_line_rejected(self):
        text = "graph a\nvertices 5\nvertices 2\nedge 1 1 2\nrot 1: 1\nrot 2: 1\n"
        with pytest.raises(ParseError) as err:
            parse_named_embeddings(text)
        assert str(err.value).startswith("line 3:")

    @pytest.mark.parametrize("text", ["graph a\nvertices 0\n", "graph a\nvertices -2\nedge 1 1 2\n"])
    def test_vertices_below_one_rejected_at_their_line(self, text):
        with pytest.raises(ParseError) as err:
            parse_named_embeddings(text)
        assert str(err.value) == "line 2: need at least one vertex"

    def test_vertices_line_with_extra_field_rejected(self):
        text = "graph a\nvertices 2 extra\nedge 1 1 2\nrot 1: 1\nrot 2: 1\n"
        with pytest.raises(ParseError) as err:
            parse_named_embeddings(text)
        assert str(err.value).startswith("line 2:")

    def test_edge_line_with_extra_fields_rejected(self):
        text = "graph a\nvertices 2\nedge 1 1 2 7 7\nrot 1: 1\nrot 2: 1\n"
        with pytest.raises(ParseError) as err:
            parse_named_embeddings(text)
        assert str(err.value).startswith("line 3:")

    def test_graph_name_with_spaces(self):
        text = "graph two words\nvertices 2\nedge 1 1 2\nrot 1: 1\nrot 2: 1\n"
        (doc,) = parse_named_embeddings(text)
        assert doc.name == "two words"

    def test_multi_document(self, theta5_systems):
        text = "".join(
            write_embedding(e, f"sys{g}") for g, e in sorted(theta5_systems.items())
        )
        docs = parse_named_embeddings(text)
        assert [d.name for d in docs] == ["sys2", "sys5", "sys10"]


class TestAppendixA:
    def test_loads_31_double_torus_systems(self):
        entries = load_appendix_a()
        assert len(entries) == 31
        assert entries[0].name == "K5#01"
        assert entries[0].expected_chirality == "orientable"
        for r in entries:
            st = surface_stats(r.embedding)
            assert (st.n, st.eps, st.f, st.genus) == (5, 10, 3, 2)

    def test_crossing_annotations_discarded(self):
        text = (
            "X#1 (or)\n"
            "-1 2 [1 3 -2 0 0]\n"
            "-2 1 [1 -3 2 0 0]\n"
        )
        entries = parse_appendix_a(text)
        assert entries[0].embedding.graph.edges == ((1, 2),)

    def test_missing_bracket_rejected(self):
        text = "X#1 (or)\n-1 2 [1 0] 3\n-2 1 [1 0]\n-3 1 [2 0]\n"
        with pytest.raises(ParseError) as err:
            parse_appendix_a(text)
        assert "missing its [edge" in str(err.value)

    def test_inconsistent_endpoints_rejected(self):
        text = (
            "X#1 (or)\n"
            "-1 2 [1 0]\n"
            "-2 3 [1 0]\n"
            "-3 2 [2 0]\n"
        )
        with pytest.raises(ParseError) as err:
            parse_appendix_a(text)
        assert "disagree" in str(err.value) or "appears" in str(err.value)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_appendix_a("X#1 orientable\n-1 2 [1 0]\n-2 1 [1 0]\n")


class TestAppendixB:
    def test_loads_13_triple_torus_systems(self):
        entries = load_appendix_b()
        assert len(entries) == 13
        assert entries[0].name == "K5#a"
        assert entries[0].expected_chirality == "orientable"
        kinds = [r.expected_chirality for r in entries]
        assert kinds.count("orientable") == 11 and kinds.count("non_orientable") == 2
        for r in entries:
            st = surface_stats(r.embedding)
            assert (st.n, st.eps, st.f, st.genus) == (5, 10, 1, 3)

    def test_k5a_one_face_each_vertex_four_times(self):
        entry = load_appendix_b()[0]
        from rotsys import trace_faces
        from rotsys.core import face_vertices

        faces = trace_faces(entry.embedding)
        assert len(faces.faces) == 1 and len(faces.faces[0]) == 20
        counts = {}
        for v in face_vertices(entry.embedding, faces.faces[0]):
            counts[v] = counts.get(v, 0) + 1
        assert counts == {v: 4 for v in range(1, 6)}

    def test_vertex_listed_twice_rejected(self):
        text = "X#a (or)\n-1 2 2\n-2 1 1\n"
        with pytest.raises(ParseError):
            parse_appendix_b(text)

    def test_one_sided_edge_rejected(self):
        text = "X#a (or)\n-1 2 3\n-2 1\n-3 1 2\n"
        with pytest.raises(ParseError):
            parse_appendix_b(text)
