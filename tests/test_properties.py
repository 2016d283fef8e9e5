"""Property tests: the JSON loaders on arbitrary field values, and the block
enumerator against filtering every part assignment.

Examples are drawn deterministically (derandomize) and no example database
is kept, so the suite gives the same verdict every time.
"""

import itertools
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_cross_checks import naive_enumerate_blocks  # noqa: E402

from hypercover import (  # noqa: E402
    Hypergraph,
    cover_from_json,
    enumerate_blocks,
    hypergraph_from_json,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None)

strings = st.text(alphabet='0a"\\\u00e9 ', max_size=3)  # a small alphabet needs no charmap
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(strings, inner, max_size=3),
    max_leaves=10,
).map(json.dumps)
# number literals json.dumps never writes: overflowing floats, integral
# floats, a 401-digit integer and one past Python's 4300-digit limit for int()
raw_numbers = st.sampled_from(["1e400", "-1e400", "2.0", "1E1", "-0", "1" + "0" * 400,
                               "1" * 5000])
sizes = st.integers(-2, 8).map(json.dumps) | raw_numbers | json_values
vertex_lists = st.lists(st.lists(st.integers(-1, 6) | st.booleans() | st.floats(0, 6),
                                 max_size=4), max_size=4).map(json.dumps)
fields = vertex_lists | json_values | raw_numbers


@settings(SETTINGS, max_examples=50)
@given(r=sizes, n=sizes, edges=fields)
def test_hypergraph_loader_raises_only_value_error(r, n, edges):
    text = f'{{"r": {r}, "n": {n}, "edges": {edges}}}'
    try:
        h = hypergraph_from_json(text)
    except ValueError:
        return
    doc = json.loads(text)
    assert (h.r, h.n) == (doc["r"], doc["n"]) and type(doc["r"]) is type(doc["n"]) is int
    assert all(type(v) is int for e in h.edges for v in e)


@settings(SETTINGS, max_examples=50)
@given(r=sizes, parts=st.lists(fields, min_size=1, max_size=3))
def test_cover_loader_raises_only_value_error(r, parts):
    blocks = ", ".join(f'{{"parts": {p}}}' for p in parts)
    text = f'{{"r": {r}, "blocks": [{blocks}]}}'
    try:
        c = cover_from_json(text)
    except ValueError:
        return
    doc = json.loads(text)
    assert c.r == doc["r"] and type(doc["r"]) is int
    assert all(type(v) is int for b in c.blocks for p in b.parts for v in p)


@st.composite
def hypergraphs(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(0, 6))
    candidates = list(itertools.combinations(range(n), r))
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    return Hypergraph(r, n, [e for e, k in zip(candidates, keep) if k])


@settings(SETTINGS, max_examples=15)
@given(h=hypergraphs())
def test_enumerator_matches_assignments(h):
    assert enumerate_blocks(h) == naive_enumerate_blocks(h)
