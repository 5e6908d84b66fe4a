"""The Bass-Serre tree oracle: Bredon homology of a graph of finite cyclic
groups from its 1-dimensional model, independent of the presentation
complex that `bredon_full` reads."""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bredonkit import AbelianGroupInvariants, bredon_full, parse
from bredonkit.bredon import SOURCE_USER_ASSERTED

from helpers import graph_of_groups_text, tree_bredon_homology

Z = AbelianGroupInvariants.free
TRIVIAL = AbelianGroupInvariants.trivial()


@pytest.mark.parametrize(
    "orders, edges, text, h0, h1",
    [
        # D-infinity = Z/2 * Z/2
        ([2, 2], [(0, 1, 1)], "<a0,a1|a0^2,a1^2>", 3, 0),
        # PSL2(Z) = Z/2 * Z/3
        ([2, 3], [(0, 1, 1)], "<a0,a1|a0^2,a1^3>", 4, 0),
        ([2, 3, 7], [(0, 1, 1), (1, 2, 1)], "<a0,a1,a2|a0^2,a1^3,a2^7>", 10, 0),
        # SL2(Z) = Z/4 *_{Z/2} Z/6
        ([4, 6], [(0, 1, 2)], "<a0,a1|a0^4,a1^6,a0^2*a1^-3>", 8, 0),
        # Z/2 * Z, a loop with the trivial group
        ([2], [(0, 0, 1)], "<a0,t0|a0^2>", 2, 1),
    ],
)
def test_tree_oracle_anchors(orders, edges, text, h0, h1):
    assert graph_of_groups_text(orders, edges) == text
    assert tree_bredon_homology(orders, edges) == (Z(h0), Z(h1), TRIVIAL)


def test_tree_oracle_agrees_with_the_one_relator_pipeline():
    # A single vertex is the cyclic group itself, which `bredon_full` certifies.
    for n in range(2, 10):
        result = bredon_full(parse(graph_of_groups_text([n], [])))
        assert result.aspherical_source is not None
        assert tree_bredon_homology([n], []) == (result.h0, result.h1, result.h2)


def test_a_loop_with_torsion_keeps_its_stable_letter():
    text = graph_of_groups_text([4], [(0, 0, 2)])
    assert text == "<a0,t0|a0^4,t0*a0^2*t0^-1*a0^-2>"
    assert tree_bredon_homology([4], [(0, 0, 2)]) == (Z(4), Z(2), TRIVIAL)


@st.composite
def graphs_with_torsion_on_an_edge(draw):
    """A connected graph of 1-4 vertices with cyclic vertex groups of order
    2-9, and edges of which the first carries a non-trivial group.

    Every vertex order is a multiple of one f in 2-4, so every edge may
    carry Z/f or any other common divisor of its ends' orders."""
    f = draw(st.integers(2, 4))
    k = draw(st.integers(1, 4))
    orders = [f * draw(st.integers(1, 9 // f)) for _ in range(k)]
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)]
    ends += draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=2))
    if not ends:
        ends = [(0, 0)]
    edges = []
    for i, (tail, head) in enumerate(ends):
        common = gcd(orders[tail], orders[head])
        divisors = [e for e in range(1, common + 1) if not common % e]
        e = f if i == 0 else draw(st.sampled_from(divisors))
        edges.append((tail, head, e))
    return orders, edges


@given(graphs_with_torsion_on_an_edge())
def test_no_certified_answer_differs_from_the_tree(graph):
    orders, edges = graph
    result = bredon_full(parse(graph_of_groups_text(orders, edges)))
    if result.aspherical_source not in (None, SOURCE_USER_ASSERTED):
        assert (result.h0, result.h1, result.h2) == tree_bredon_homology(orders, edges)
