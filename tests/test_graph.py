import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbag import (
    QBAG,
    CyclicGraph,
    DuplicateArgument,
    NotDistinct,
    OverlappingRelation,
    StrengthOutOfRange,
    UnknownArgument,
    UnknownEndpoint,
    argument_mask,
    reaches,
    remove_incoming,
    restrict,
    strictly_closer,
    topological_order,
    with_initial_strength,
)


def chain_graph():
    # c supports b, b attacks a
    return QBAG([("a", 0.5), ("b", 0.5), ("c", 0.5)], attacks=[("b", "a")], supports=[("c", "b")])


def intro_graph():
    return QBAG(
        [("a", 0.5), ("b", 0.0), ("c", 0.0), ("d", 0.0), ("e", 0.5)],
        attacks=[("c", "a"), ("d", "a")],
        supports=[("b", "a"), ("e", "b"), ("e", "c"), ("e", "d")],
    )


def fan_graph():
    # f -> e -> {b, c, d} -> a
    return QBAG(
        [("a", 0.1), ("b", 0.15), ("c", 0.15), ("d", 0.15), ("e", 0.495), ("f", 1.0)],
        attacks=[("b", "a"), ("c", "a")],
        supports=[("d", "a"), ("e", "b"), ("e", "c"), ("e", "d"), ("f", "e")],
    )


class TestBuild:
    def test_three_node_graph(self):
        g = chain_graph()
        assert g.arguments == ("a", "b", "c")
        assert g.attacks == (("b", "a"),)
        assert g.supports == (("c", "b"),)
        assert g.initial_strength("b") == 0.5
        assert list(g) == ["a", "b", "c"] and len(g) == 3
        assert "b" in g and "z" not in g and 1 not in g
        assert g == chain_graph() and hash(g) == hash(chain_graph())
        assert g != QBAG([("a", 0.5), ("b", 0.5), ("c", 0.5)], attacks=[("b", "a")])
        assert g.__eq__("a graph") is NotImplemented and g != "a graph"
        assert repr(g) == "QBAG(a=0.5, b=0.5, c=0.5; attacks=1, supports=1)"

    def test_singleton_without_edges(self):
        g = QBAG([("a", 0.5)])
        assert g.arguments == ("a",)
        assert g.attacks == () and g.supports == ()

    def test_overlapping_relation_rejected(self):
        with pytest.raises(OverlappingRelation):
            QBAG([("a", 0.5), ("b", 0.5)], attacks=[("a", "b")], supports=[("a", "b")])

    def test_two_cycle_rejected(self):
        with pytest.raises(CyclicGraph):
            QBAG([("a", 0.5), ("b", 0.5)], attacks=[("a", "b"), ("b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(CyclicGraph):
            QBAG([("a", 0.5)], attacks=[("a", "a")])

    def test_duplicate_argument(self):
        with pytest.raises(DuplicateArgument):
            QBAG([("a", 0.5), ("a", 0.6)])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            QBAG([("a", 0.5)], attacks=[("a", "zz")])

    def test_strength_out_of_range(self):
        with pytest.raises(StrengthOutOfRange):
            QBAG([("a", 1.5)])
        with pytest.raises(StrengthOutOfRange):
            QBAG([("a", -0.1)])
        # float() of these overflows; they are still just out of range
        for huge in (10**400, -(10**400)):
            with pytest.raises(StrengthOutOfRange):
                QBAG([("a", huge)])
            with pytest.raises(StrengthOutOfRange):
                with_initial_strength(QBAG([("a", 0.5)]), "a", huge)

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            QBAG([("a b", 0.5)])
        with pytest.raises(ValueError):
            QBAG([("a,b", 0.5)])
        with pytest.raises(ValueError):
            QBAG([("", 0.5)])


class TestRestrict:
    def test_drops_edges_with_removed_argument(self):
        g = restrict(chain_graph(), ["a", "c"])
        assert g.arguments == ("a", "c")
        assert g.attacks == () and g.supports == ()

    def test_identity_restriction(self):
        g = chain_graph()
        assert restrict(g, g.arguments) == g

    def test_idempotent(self):
        g = chain_graph()
        once = restrict(g, ["a", "c"])
        assert restrict(once, ["a", "c"]) == once

    def test_unknown_argument(self):
        with pytest.raises(UnknownArgument):
            restrict(chain_graph(), ["a", "zz"])

    def test_input_unchanged(self):
        g = chain_graph()
        restrict(g, ["a"])
        assert g.arguments == ("a", "b", "c")
        assert g.attacks == (("b", "a"),)


class TestRemoveIncoming:
    def test_chain_loses_support_into_b(self):
        g = remove_incoming(chain_graph(), "b")
        assert g.supports == ()
        assert g.attacks == (("b", "a"),)

    def test_identity_for_parentless_argument(self):
        g = chain_graph()
        assert remove_incoming(g, "c") == g

    def test_locality(self):
        g = remove_incoming(intro_graph(), "b")
        assert ("e", "b") not in g.supports
        assert ("e", "c") in g.supports and ("e", "d") in g.supports

    def test_unknown_argument(self):
        with pytest.raises(UnknownArgument):
            remove_incoming(chain_graph(), "zz")


class TestInitialStrengthModification:
    def test_replaces_one_strength(self):
        g = with_initial_strength(chain_graph(), "b", 0.9)
        assert g.initial_strength("b") == 0.9
        assert g.initial_strength("a") == 0.5
        assert g.attacks == (("b", "a"),)

    def test_same_value_is_structural_identity(self):
        g = chain_graph()
        assert with_initial_strength(g, "b", 0.5) == g

    def test_out_of_range(self):
        with pytest.raises(StrengthOutOfRange):
            with_initial_strength(chain_graph(), "b", 1.5)

    def test_unknown_argument(self):
        with pytest.raises(UnknownArgument):
            with_initial_strength(chain_graph(), "zz", 0.5)


class TestTopologicalOrder:
    def test_chain_is_forced(self):
        assert topological_order(chain_graph()) == ["c", "b", "a"]

    def test_edgeless_keeps_list_order(self):
        g = QBAG([("x", 0.1), ("m", 0.2), ("a", 0.3)])
        assert topological_order(g) == ["x", "m", "a"]

    def test_intro_graph_constraints(self):
        order = topological_order(intro_graph())
        pos = {name: i for i, name in enumerate(order)}
        assert pos["e"] < min(pos["b"], pos["c"], pos["d"])
        assert max(pos["b"], pos["c"], pos["d"]) < pos["a"]


class TestReaches:
    def test_transitive(self):
        assert reaches(chain_graph(), "c", "a")

    def test_direction_matters(self):
        assert not reaches(chain_graph(), "a", "c")

    def test_no_self_reach_on_acyclic_graphs(self):
        g = chain_graph()
        assert all(not reaches(g, x, x) for x in g.arguments)


class TestStrictlyCloser:
    def test_gate_argument_is_strictly_closer(self):
        assert strictly_closer(fan_graph(), "e", "f", "a")

    def test_parallel_paths_break_strict_closeness(self):
        assert not strictly_closer(fan_graph(), "b", "e", "a")

    def test_unique_path_chain(self):
        assert strictly_closer(chain_graph(), "b", "c", "a")

    def test_requires_distinct_arguments(self):
        with pytest.raises(NotDistinct):
            strictly_closer(chain_graph(), "b", "b", "a")

    def test_implies_reachability_facts(self):
        g = fan_graph()
        for nearer in g.arguments:
            for farther in g.arguments:
                for topic in g.arguments:
                    if len({nearer, farther, topic}) != 3:
                        continue
                    if strictly_closer(g, nearer, farther, topic):
                        assert reaches(g, farther, topic)
                        assert reaches(g, nearer, topic)
                        assert reaches(g, farther, nearer)


class TestMasks:
    def test_roundtrip(self):
        g = intro_graph()
        mask = argument_mask(g, ["a", "d"])
        assert mask == 0b01001

    def test_unknown_argument(self):
        with pytest.raises(UnknownArgument):
            argument_mask(chain_graph(), ["zz"])


# ------------------------------------------------------ property-based tests

_names = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=3),
    min_size=1,
    max_size=8,
    unique=True,
)


@st.composite
def acyclic_qbags(draw):
    names = draw(_names)
    n = len(names)
    order = draw(st.permutations(range(n)))
    attacks, supports = [], []
    for i in range(n):
        for j in range(i + 1, n):
            kind = draw(st.sampled_from(["none", "none", "attack", "support"]))
            if kind == "none":
                continue
            edge = (names[order[i]], names[order[j]])
            (attacks if kind == "attack" else supports).append(edge)
    taus = [draw(st.floats(0.0, 1.0, allow_nan=False)) for _ in range(n)]
    return QBAG(zip(names, taus), attacks, supports)


@settings(max_examples=120, deadline=None)
@given(acyclic_qbags())
def test_restriction_idempotent_and_identity(g):
    keep = [name for i, name in enumerate(g.arguments) if i % 2 == 0]
    once = restrict(g, keep)
    assert restrict(once, keep) == once
    assert restrict(g, g.arguments) == g


@settings(max_examples=120, deadline=None)
@given(acyclic_qbags(), st.randoms(use_true_random=False))
def test_topological_order_respects_edges_under_permutation(g, rnd):
    pairs = list(zip(g.arguments, (g.initial_strength(n) for n in g.arguments)))
    rnd.shuffle(pairs)
    permuted = QBAG(pairs, g.attacks, g.supports)
    for graph in (g, permuted):
        pos = {name: i for i, name in enumerate(topological_order(graph))}
        for src, dst in graph.attacks + graph.supports:
            assert pos[src] < pos[dst]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.text(string.ascii_lowercase, min_size=1, max_size=2), st.floats(-0.5, 1.5)), max_size=6),
    st.lists(st.tuples(st.text("ab", min_size=1, max_size=1), st.text("ab", min_size=1, max_size=1)), max_size=4),
    st.lists(st.tuples(st.text("ab", min_size=1, max_size=1), st.text("ab", min_size=1, max_size=1)), max_size=4),
)
def test_build_rejects_only_the_five_error_classes(args, attacks, supports):
    try:
        g = QBAG(args, attacks, supports)
    except (DuplicateArgument, UnknownEndpoint, StrengthOutOfRange, OverlappingRelation, CyclicGraph):
        return
    # accepted graphs satisfy the structural invariants
    assert len(set(g.arguments)) == len(g.arguments)
    assert all(0.0 <= g.initial_strength(n) <= 1.0 for n in g.arguments)
    assert not set(g.attacks) & set(g.supports)
    pos = {name: i for i, name in enumerate(topological_order(g))}
    assert all(pos[s] < pos[d] for s, d in g.attacks + g.supports)


def test_the_package_exports_its_names_and_no_module():
    import types

    import qbag

    assert len(qbag.__all__) == len(set(qbag.__all__)) > 50
    for name in qbag.__all__:
        assert not isinstance(getattr(qbag, name), types.ModuleType), name
    assert {"QBAG", "EvaluationCache", "run_check", "load_graph", "DomainError"} <= set(qbag.__all__)
    assert not {"graph", "fuzz", "semantics", "contributions", "principles", "errors", "graphfile", "rng"} & set(qbag.__all__)
    namespace = {}
    exec("from qbag import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qbag.__all__)
