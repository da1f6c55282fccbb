"""The on-disk graph format used by the command line tools.

A graph file is a UTF-8 JSON document with three top-level keys:

    {
      "arguments": [{"id": "a", "initial": 0.5}, ...],
      "attacks":   [["b", "a"], ...],
      "supports":  [["c", "b"], ...]
    }

An argument id is a non-empty string without whitespace or commas.
Argument order in the file is the graph's argument order.  Numbers may be
written in decimal or scientific notation.  A key given twice in one object,
at any level, is rejected.  Parsing applies the full graph
validation, so a file that names unknown endpoints, duplicates an argument,
overlaps the relations, or encodes a cycle is rejected with the matching
error.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import GraphFormatError
from .graph import QBAG, _check_name


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object as a dict; a key given twice raises GraphFormatError,
    where ``json.loads`` would keep the last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        duplicate = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise GraphFormatError(f"duplicate key {duplicate!r}")
    return doc


def parse_graph(text: str) -> QBAG:
    """Parse a graph document; raises GraphFormatError for malformed input
    and the specific construction errors for structurally invalid graphs."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise GraphFormatError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be an object")
    for key in ("arguments", "attacks", "supports"):
        if key not in doc:
            raise GraphFormatError(f"missing top-level key {key!r}")
        if not isinstance(doc[key], list):
            raise GraphFormatError(f"{key!r} must be a list")

    arguments = []
    for entry in doc["arguments"]:
        if not isinstance(entry, dict) or "id" not in entry or "initial" not in entry:
            raise GraphFormatError(f"argument entries need 'id' and 'initial', got {entry!r}")
        try:
            _check_name(entry["id"])
        except ValueError as exc:
            raise GraphFormatError(f"argument id: {exc}") from None
        if not isinstance(entry["initial"], (int, float)) or isinstance(entry["initial"], bool):
            raise GraphFormatError(f"initial strength must be a number, got {entry['initial']!r}")
        arguments.append((entry["id"], entry["initial"]))

    def edge_list(key: str) -> list[tuple[str, str]]:
        out = []
        for pair in doc[key]:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)
            ):
                raise GraphFormatError(f"{key!r} entries must be [source, target] pairs, got {pair!r}")
            out.append((pair[0], pair[1]))
        return out

    return QBAG(arguments, edge_list("attacks"), edge_list("supports"))


def serialize_graph(graph: QBAG) -> str:
    """Render a graph in the file format; parse(serialize(g)) is structurally
    equal to g.  Floats round-trip exactly via repr."""
    doc = {
        "arguments": [
            {"id": name, "initial": strength}
            for name, strength in zip(graph.arguments, (graph.initial_strength(n) for n in graph.arguments))
        ],
        "attacks": [[s, d] for s, d in graph.attacks],
        "supports": [[s, d] for s, d in graph.supports],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_graph(path: str | Path) -> QBAG:
    """Read and parse a graph file; bytes that are not UTF-8 raise
    GraphFormatError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8: {exc}") from None
    return parse_graph(text)


def save_graph(graph: QBAG, path: str | Path) -> None:
    Path(path).write_text(serialize_graph(graph), encoding="utf-8")
