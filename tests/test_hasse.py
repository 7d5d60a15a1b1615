import json

import pytest
from hypothesis import example, given, settings, strategies as st

from slinf.cls_codes import cover_walk, or_of_rows
from slinf.hasse import covering_relations, family_hasse, hasse_adjacency, hasse_dot
from slinf.ideals import (
    AUGMENTATION_IDEAL,
    ZERO_IDEAL,
    Ideal,
    enumerate_diagrams,
    enumerate_ideals,
    is_contained,
)
from test_order_laws import genuine_orders


def test_single_column_family_graph():
    family = enumerate_ideals(0, 0, 1, 1)
    assert family == [
        AUGMENTATION_IDEAL,
        Ideal(0, 0, (), (1,)),
        Ideal(0, 0, (1,), ()),
        Ideal(0, 0, (1,), (1,)),
    ]
    covers = covering_relations(family)
    assert covers == [
        (Ideal(0, 0, (), (1,)), AUGMENTATION_IDEAL),
        (Ideal(0, 0, (1,), ()), AUGMENTATION_IDEAL),
        (Ideal(0, 0, (1,), (1,)), Ideal(0, 0, (), (1,))),
        (Ideal(0, 0, (1,), (1,)), Ideal(0, 0, (1,), ())),
    ]
    # covering edges really are strict inclusions with nothing in between
    for inner, outer in covers:
        assert inner != outer and is_contained(inner, outer)
        between = [
            c for c in family
            if c not in (inner, outer)
            and is_contained(inner, c) and is_contained(c, outer)
        ]
        assert not between


def test_all_zero_bounds_single_node():
    dot = family_hasse(0, 0, 0, 0, "dot")
    assert dot == 'digraph ideal_inclusions {\n  "I(0,0,[],[])";\n}\n'


def test_dot_renders_each_node_once(monkeypatch):
    family = enumerate_ideals(2, 2, 2, 2)
    expected = family_hasse(2, 2, 2, 2, "dot")
    rendered = []
    render = Ideal.__str__

    def counted(ideal):
        rendered.append(ideal)
        return render(ideal)

    monkeypatch.setattr(Ideal, "__str__", counted)
    assert hasse_dot(family) == expected
    assert sorted(rendered, key=Ideal.sort_key) == family  # once per node, not once per edge end


def test_dot_output_is_deterministic():
    first = family_hasse(1, 1, 1, 1, "dot")
    second = family_hasse(1, 1, 1, 1, "dot")
    assert first == second


def test_json_matches_dot_edge_count():
    family = enumerate_ideals(0, 0, 1, 1)
    graph = hasse_adjacency(family)
    assert [Ideal.from_json(node) for node in graph["nodes"]] == family
    edge_count = sum(len(row) for row in graph["adjacency"])
    dot = family_hasse(0, 0, 1, 1, "dot")
    assert dot.count("->") == edge_count == 4
    text = family_hasse(0, 0, 1, 1, "json")
    assert json.loads(text) == graph


def test_family_hasse_errors():
    with pytest.raises(ValueError):
        family_hasse(-1, 0, 0, 0, "dot")
    with pytest.raises(ValueError):
        family_hasse(0, 0, 0, 0, "svg")


def covering_reference(ideals):
    """The cubic definition: strict pairs with no family member strictly between."""
    family = sorted(set(ideals), key=Ideal.sort_key)
    strict = {(a, b) for a in family for b in family if a != b and is_contained(a, b)}
    covers = [
        (a, b)
        for (a, b) in strict
        if not any((a, c) in strict and (c, b) in strict for c in family)
    ]
    return sorted(covers, key=lambda e: (e[0].sort_key(), e[1].sort_key()))


@example([ZERO_IDEAL] + enumerate_ideals(1, 1, 1, 2))
@given(st.lists(
    st.one_of(
        st.just(ZERO_IDEAL),
        st.builds(
            Ideal,
            st.integers(0, 2),
            st.integers(0, 2),
            st.sampled_from(enumerate_diagrams(2, 2)),
            st.sampled_from(enumerate_diagrams(2, 2)),
        ),
    ),
    max_size=14,
))
def test_covering_relations_match_reference(family):
    assert covering_relations(family) == covering_reference(family)


def test_wide_y_spread_is_a_chain():
    # one constant code per ideal, limits 0..300 and no deficit: a chain
    family = enumerate_ideals(0, 300, 0, 0)
    assert covering_relations(family) == [(Ideal(0, y + 1), Ideal(0, y)) for y in range(300)]


def transitive_reduction(rows):
    """The bitset reduction of Aho, Garey and Ullman (1972): strict(i) minus the OR of strict(c) over c in strict(i)."""
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]
    return [edges & ~or_of_rows(strict, edges) for edges in strict]


@given(genuine_orders)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cover_walk_gives_the_transitive_reduction(rows):
    # the points in their drawn order, so rows have edges on both sides
    reduction = transitive_reduction(rows)
    for i, covers in enumerate(reduction):
        picks, union = cover_walk(rows, i)
        assert picks & ~union == covers
        # every edge is a pick or lies in a pick's strict row
        assert picks | union == rows[i] & ~(1 << i)


def test_cover_walk_takes_the_nearest_edge_first():
    # a chain 0 < 1 < 2 < 3 read from 1: one pick, the edge just above, whose row holds 3
    assert cover_walk([0b1111, 0b1110, 0b1100, 0b1000], 1) == (0b0100, 0b1000)
    # the reversed chain read from 2: one pick, the edge just below, whose row holds 0
    assert cover_walk([0b0001, 0b0011, 0b0111, 0b1111], 2) == (0b0010, 0b0001)
