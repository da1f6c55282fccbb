import pytest

from qbag import (
    CyclicGraph,
    GraphFormatError,
    OverlappingRelation,
    UnknownEndpoint,
    load_graph,
    parse_graph,
    serialize_graph,
)
from qbag.corpus import list_examples, load_example

from conftest import random_graphs


class TestParsing:
    def test_minimal_document(self):
        g = parse_graph(
            '{"arguments": [{"id": "a", "initial": 0.5}, {"id": "b", "initial": 1}],'
            ' "attacks": [["b", "a"]], "supports": []}'
        )
        assert g.arguments == ("a", "b")
        assert g.attacks == (("b", "a"),)

    def test_scientific_notation(self):
        g = parse_graph(
            '{"arguments": [{"id": "a", "initial": 5e-1}], "attacks": [], "supports": []}'
        )
        assert g.initial_strength("a") == 0.5

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"arguments": [], "attacks": []}',
            '{"arguments": {}, "attacks": [], "supports": []}',
            '{"arguments": [{"id": "a"}], "attacks": [], "supports": []}',
            '{"arguments": [{"id": "a", "initial": "x"}], "attacks": [], "supports": []}',
            '{"arguments": [{"id": "a", "initial": true}], "attacks": [], "supports": []}',
            '{"arguments": [{"id": "a", "initial": 0.5}], "attacks": [["a"]], "supports": []}',
            '{"arguments": [{"id": "a b", "initial": 0.5}], "attacks": [], "supports": []}',
            '{"arguments": [{"id": "a,b", "initial": 0.5}], "attacks": [], "supports": []}',
            '{"arguments": [{"id": "", "initial": 0.5}], "attacks": [], "supports": []}',
            pytest.param("[" * 200_000 + "]" * 200_000, id="deeply-nested"),
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    def test_structural_validation_applies(self):
        with pytest.raises(UnknownEndpoint):
            parse_graph(
                '{"arguments": [{"id": "a", "initial": 0.5}], "attacks": [["a", "b"]], "supports": []}'
            )
        with pytest.raises(CyclicGraph):
            parse_graph(
                '{"arguments": [{"id": "a", "initial": 0.5}, {"id": "b", "initial": 0.5}],'
                ' "attacks": [["a", "b"], ["b", "a"]], "supports": []}'
            )
        with pytest.raises(OverlappingRelation):
            parse_graph(
                '{"arguments": [{"id": "a", "initial": 0.5}, {"id": "b", "initial": 0.5}],'
                ' "attacks": [["a", "b"]], "supports": [["a", "b"]]}'
            )


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"arguments": [], "attacks": [["b", "a"]], "supports": [], "attacks": []}', "attacks"),
        ('{"arguments": [{"id": "a", "initial": 0.5, "initial": 0.7}], "attacks": [], "supports": []}', "initial"),
        ('{"arguments": [{"id": "a", "initial": 0.5, "x": {"k": 1, "k": 2}}], "attacks": [], "supports": []}', "k"),
    ],
)
def test_a_key_given_twice_raises_graph_format_error(text, key):
    # json.loads keeps a duplicate key's last value; a graph file may not
    with pytest.raises(GraphFormatError, match=f"^duplicate key '{key}'$"):
        parse_graph(text)


def test_a_file_that_is_not_utf8_raises_graph_format_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"arguments": [{"id": "\u00e9", "initial": 0.5}], "attacks": [], "supports": []}'.encode("latin-1"))
    with pytest.raises(GraphFormatError, match="^not UTF-8: 'utf-8' codec can't decode byte 0xe9"):
        load_graph(path)
    path.write_bytes(path.read_bytes().decode("latin-1").encode("utf-8"))
    assert load_graph(path).arguments == ("\u00e9",)


class TestRoundTrip:
    def test_reference_graphs(self):
        for example_id, _, _ in list_examples():
            g = load_example(example_id).graph
            assert parse_graph(serialize_graph(g)) == g

    def test_random_graphs(self):
        for g in random_graphs(seed=41, count=1000):
            assert parse_graph(serialize_graph(g)) == g

    def test_serialization_is_deterministic(self):
        g = load_example("fig-intro").graph
        assert serialize_graph(g) == serialize_graph(g)
        assert serialize_graph(g).endswith("\n")
