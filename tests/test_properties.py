"""Property tests: the JSON loaders on arbitrary field values, the hypergraph
loader against a plain document checked edge by edge, edge, block and label
class storage, the JSON round trips, the multiplicity profiler against
listing every block edge and, on K_n^r held as (r, n), against the listed
host, the block table's parts and edge masks against
filtering every part assignment and, on sparse inputs with many vertices,
against testing every set of edges, its locally maximal blocks against
trying every vertex in every part, the inertia by elimination against the
characteristic polynomial, the `verify` command on small documents, valid or
spoilt, the `bounds` and `rank` commands on odd option values, and the
`search` command on odd option values and small documents, valid or spoilt.

Examples are drawn deterministically (derandomize) and no example database
is kept, so the suite gives the same verdict every time.
"""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile
import time
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from test_cross_checks import (  # noqa: E402
    LISTS,
    naive_block_parts,
    naive_blocks_by_edge_sets,
    naive_canonical,
    naive_inertia,
    naive_label_classes,
    naive_locally_maximal,
    naive_profile,
    naive_table,
    naive_verify,
)

from hypercover import (  # noqa: E402
    Cover,
    Hypergraph,
    LabelBlock,
    MultiplicityList,
    RPartiteBlock,
    complete_hypergraph,
    cover_from_json,
    cover_to_json,
    enumerate_blocks,
    hypergraph_from_json,
    hypergraph_to_json,
    inertia,
    multiplicity_profile,
    verify_cover,
)
from hypercover import cli  # noqa: E402
from hypercover.oracles import _BlockTable, _block_table  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None)

# the hypothesis plugin meets this warning while it reports a failing example;
# under -W error it would end the run in an INTERNALERROR instead of the
# report. A filterwarnings mark is applied after the command line's -W
# options, which the ini option's filters are not.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

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


@settings(SETTINGS, max_examples=30)
@given(h=hypergraphs())
@example(h=complete_hypergraph(6, 4))
@example(h=Hypergraph(4, 6, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 1, 4, 5),
                             (2, 3, 4, 5)]))
def test_enumerator_matches_assignments(h):
    blocks, table = enumerate_blocks(h), _block_table(h)
    assert (table.parts, table.masks) == naive_table(h)
    # built without checks, the blocks are canonical already
    assert [b.parts for b in blocks] == table.parts
    assert all(b == RPartiteBlock(b.parts) for b in blocks)


@st.composite
def sparse_hypergraphs(draw):
    """Up to 10 edges on up to 24 vertices, too many for filtering part
    assignments; the edges lie in a window of r + 3 vertices, so that some of
    them form blocks with more than one vertex in a part."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(r, 24))
    low = draw(st.integers(0, n - r))
    vertices = st.integers(low, min(n - 1, low + r + 2))
    edge = st.lists(vertices, min_size=r, max_size=r, unique=True).map(sorted).map(tuple)
    return Hypergraph(r, n, draw(st.lists(edge, max_size=10)))


@settings(SETTINGS, max_examples=40)
@given(h=sparse_hypergraphs())
@example(h=Hypergraph(150, 150, [tuple(range(150))]))
@example(h=Hypergraph(2, 24, [(2 * i, 2 * i + 1) for i in range(12)]))
def test_enumerator_matches_edge_sets(h):
    table = _BlockTable(h)
    assert (table.parts, table.masks) == naive_blocks_by_edge_sets(h)


# blocks of two parts of two vertices, of a part of three, and a stray edge
SPARSE_R5 = Hypergraph(5, 12, [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 4, 6),
                               (0, 1, 2, 5, 6), (0, 1, 3, 4, 7), (0, 1, 2, 3, 8),
                               (5, 6, 7, 8, 9)])


@pytest.mark.parametrize("h, reference", [(complete_hypergraph(7, 5), naive_table),
                                          (SPARSE_R5, naive_blocks_by_edge_sets)],
                         ids=["K_7^5", "sparse"])
def test_table_at_r5_matches_reference(h, reference):
    table = _BlockTable(h)
    assert (table.parts, table.masks) == reference(h)
    expected = naive_locally_maximal([RPartiteBlock(parts) for parts in table.parts], h)
    assert table.maximal == ([b.parts for b in expected],
                             [table.masks[table.parts.index(b.parts)] for b in expected])


@settings(SETTINGS, max_examples=40)
@given(h=hypergraphs())
def test_maximal_blocks_match_reference(h):
    table = _block_table(h)
    expected = naive_locally_maximal(enumerate_blocks(h), h)
    assert table.maximal == ([b.parts for b in expected],
                             [table.masks[table.parts.index(b.parts)] for b in expected])


@st.composite
def edge_inputs(draw):
    """(r, n, edges, container): unsorted vertex lists, repeats included."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(0, 9))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True),
                          max_size=12)) if n >= r else []
    if edges:
        edges += draw(st.lists(st.sampled_from(edges).map(lambda e: e[::-1]), max_size=4))
    return r, n, edges, draw(st.sampled_from(["tuples", "lists", "frozenset", "iterator"]))


@settings(SETTINGS, max_examples=60)
@given(case=edge_inputs())
def test_edges_stored_sorted_and_deduplicated(case):
    r, n, edges, container = case
    tuples = [tuple(e) for e in edges]
    given_edges = {"tuples": tuples, "lists": edges, "frozenset": frozenset(tuples),
                   "iterator": iter(tuples)}[container]
    stored = Hypergraph(r, n, given_edges).edges
    assert stored == tuple(sorted(naive_canonical(tuples, r, n)))
    assert all(a < b for a, b in zip(stored, stored[1:]))


def outcome(build, *args):
    """What build(*args) gives, or the message of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


CONTAINERS = {"frozenset": frozenset, "list": list, "tuple": tuple, "iterator": iter}


@st.composite
def given_collections(draw, collections):
    """(raw, given): unsorted collections with repeats, and the same ones
    each wrapped in a container drawn from CONTAINERS. raw holds what the
    container gives out: a frozenset has merged True into 1 already."""
    raw = [draw(st.permutations(c + draw(st.lists(st.sampled_from(c), max_size=2))))
           if c else [] for c in collections]
    kinds = draw(st.lists(st.sampled_from(sorted(CONTAINERS)), min_size=len(raw),
                          max_size=len(raw)))
    return ([list(frozenset(c)) if k == "frozenset" else c for k, c in zip(kinds, raw)],
            [CONTAINERS[k](c) for k, c in zip(kinds, raw)])


@st.composite
def valid_parts(draw):
    """r disjoint non-empty parts over ids in 0..30."""
    r = draw(st.integers(2, 4))
    vertices = draw(st.lists(st.integers(0, 30), min_size=r, max_size=12, unique=True))
    part_of = list(range(r)) + draw(st.lists(st.integers(0, r - 1), min_size=len(vertices) - r,
                                             max_size=len(vertices) - r))
    return draw(given_collections([[v for v, i in zip(vertices, part_of) if i == j]
                                   for j in range(r)]))


loose_parts = st.lists(st.lists(st.integers(-1, 8) | st.booleans(), max_size=4), max_size=4)


@settings(SETTINGS, max_examples=60)
@given(case=valid_parts())
def test_block_parts_stored_sorted(case):
    raw, parts = case
    stored = RPartiteBlock(parts).parts
    assert stored == naive_block_parts(raw)
    assert all(type(p) is tuple and all(a < b for a, b in zip(p, p[1:])) for p in stored)


@settings(SETTINGS, max_examples=60)
@given(case=loose_parts.flatmap(given_collections))
def test_block_checks_match_reference(case):
    raw, parts = case
    assert (outcome(lambda: RPartiteBlock(parts).parts)
            == outcome(naive_block_parts, raw))


@st.composite
def label_classes(draw):
    """(r, raw, given): r label classes, mostly valid, at times with a label
    outside 0..r, a bool next to its int, or one class too few or too many."""
    r = draw(st.integers(2, 4))
    labels = st.integers(0, r) | st.integers(-1, r + 1) | st.booleans()
    count = draw(st.sampled_from([r, r, r, r - 1, r + 1]))
    classes = draw(st.lists(st.lists(labels, min_size=1, max_size=r + 1), min_size=count,
                            max_size=count))
    return (r, *draw(given_collections(classes)))


@settings(SETTINGS, max_examples=80)
@given(case=label_classes())
def test_label_classes_match_reference(case):
    r, raw, classes = case
    assert (outcome(lambda: LabelBlock(r, classes).classes)
            == outcome(naive_label_classes, r, raw))


@st.composite
def spread_hypergraphs(draw):
    """Sparse r-graphs on a few far-apart vertex ids, so the runs of last
    vertices under a prefix have gaps, plus unused vertices above them."""
    r = draw(st.integers(2, 4))
    ids = sorted(draw(st.sets(st.integers(0, 300), min_size=r, max_size=8)))
    candidates = list(itertools.combinations(ids, r))
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    n = ids[-1] + 1 + draw(st.integers(0, 3))
    return Hypergraph(r, n, [e for e, k in zip(candidates, keep) if k]), ids


@settings(SETTINGS, max_examples=40)
@given(case=spread_hypergraphs())
def test_json_round_trip(case):
    h, _ = case
    text = hypergraph_to_json(h)
    assert hypergraph_from_json(text) == h
    assert hypergraph_to_json(hypergraph_from_json(text)) == text


def plain_load(text, check=None):
    """The plain document's rows as tuples, given to Hypergraph after `check`,
    if any, has checked them and returned them sorted; a TypeError is reported
    as malformed JSON."""
    doc = json.loads(text)
    r, n = doc["r"], doc["n"]
    try:
        rows = map(tuple, doc["edges"])
        return Hypergraph(r, n, rows if check is None or r < 2 else sorted(check(rows, r, n)))
    except TypeError as exc:
        raise ValueError(f"malformed hypergraph JSON: {exc!r}") from None


BAD_VERTICES = [True, False, 1.0, 2.5, math.nan, math.inf, -math.inf, "1", None, -1, [0]]
BAD_ROWS = [{}, {"0": 1, "1": 2}, "ab", "", 5, [[0, 1]], [[0], [1]], None]


@st.composite
def host_documents(draw):
    """Hypergraph documents as text: distinct edges near n, above 256 when n
    is, or every r-set of a small n, maybe shuffled, repeated and reversed,
    and maybe spoilt by a bool, float, NaN, infinite, string, null, array,
    negative or too large vertex, a row of the wrong length or type, r <= 1
    with rows present, or n = 0. Some are written as hypergraph_to_json
    writes, maybe followed by whitespace, so complete hosts come out as their
    canonical documents."""
    r = draw(st.integers(2, 4))
    if draw(st.booleans()):
        n = draw(st.integers(0, 9))
        rows = [list(e) for e in itertools.combinations(range(n), r)]
    else:
        n = draw(st.integers(0, 8) | st.integers(257, 300))
        candidates = list(itertools.combinations(range(max(0, n - 7), n), r))
        rows = [list(e) for e in sorted(draw(st.sets(st.sampled_from(candidates), max_size=12)))
                ] if candidates else []
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        rows = [row[::-1] if draw(st.booleans()) else row for row in draw(st.permutations(rows))]
    fault = draw(st.sampled_from([None, None, "vertex", "length", "row", "r", "n"]))
    if fault == "r":
        r = draw(st.integers(-1, 1))
    elif fault == "n":
        n = draw(st.sampled_from([0, max(0, n - 2)]))
    elif rows and fault is not None:
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "vertex":
            rows[i] = list(rows[i])
            j = draw(st.integers(0, len(rows[i]) - 1))
            v = rows[i][j]  # a look-alike of v keeps the row and the edges in order
            look_alikes = [float(v), str(v)] + ([bool(v)] if v in (0, 1) else [])
            rows[i][j] = draw(st.sampled_from(BAD_VERTICES + look_alikes + [n, n + 300]))
        elif fault == "length":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [n + 1]
        else:
            rows[i] = draw(st.sampled_from(BAD_ROWS))
    if draw(st.booleans()):
        return json.dumps({"r": r, "n": n, "edges": rows})
    return (json.dumps({"r": r, "n": n, "edges": rows}, sort_keys=True, separators=(",", ":"))
            + draw(st.sampled_from(["", "\n", " \r\n\t"])))


@settings(SETTINGS, max_examples=300)
@given(text=host_documents())
@example(text='{"r": 1, "n": 3, "edges": [[0], [2]]}')
@example(text='{"r": 0, "n": 3, "edges": [[]]}')
@example(text='{"r": 2, "n": 0, "edges": [[0, 1]]}')
@example(text='{"r": 2, "n": 3, "edges": [[-1, 1], [0, 2]]}')
@example(text='{"r": 2, "n": 300, "edges": [[0, 257], [0, 300]]}')
@example(text='{"r": 2, "n": 0, "edges": []}')
@example(text='{"r": 2, "n": 3, "edges": [{"0": 1, "1": 2}]}')
@example(text='{"r": 2, "n": 3, "edges": [[0, 1], 5]}')
@example(text='{"r": 2, "n": 3, "edges": [[0, 1], [1, NaN]]}')
@example(text='{"r": 2, "n": 3, "edges": [[0, 1], [true, 2]]}')
@example(text='{"r": 2, "n": 3, "edges": [[false, 1], [1, 2]]}')
@example(text='{"r": 2, "n": 3, "edges": [[0, 1], [1, 2e0]]}')
@example(text='{"r": 2, "n": 3, "edges": [[0, 1], [Infinity, 2]]}')
@example(text='{"r": 2, "n": 3, "edges": [["a", "b"], ["b", "c"]]}')
@example(text='{"r": 2, "n": 3, "edges": [[[0], [1]], [[1], [2]]]}')
@example(text='{"r": 2, "n": 3, "edges": [[0, 1], [1, 2.0]]}')
@example(text='{"r": 2, "n": 3, "edges": [[0, 1], [1, 2]], "note": "tf-"}')
@example(text='{"edges":[[0,1],[0,2],[1,2]],"n":3,"r":2}\n')
@example(text='{"edges":[[0,1],[0,2],[1,3]],"n":3,"r":2}')
@example(text='{"edges":[],"n":3,"r":4}')
def test_loader_matches_reference(text):
    loaded = outcome(hypergraph_from_json, text)
    assert loaded == outcome(plain_load, text) == outcome(plain_load, text, naive_canonical)
    assert outcome(hypergraph_from_json, text.encode()) == loaded  # json.loads reads bytes too
    if isinstance(loaded, Hypergraph):
        assert type(loaded.edges) is tuple
        assert all(type(e) is tuple and set(map(type, e)) == {int} for e in loaded.edges)


@st.composite
def spread_covers(draw):
    """A spread hypergraph and up to four blocks on some of its ids, so some
    edges lie above every vertex a block counts under their prefix."""
    h, ids = draw(spread_hypergraphs())
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        vertices = draw(st.lists(st.sampled_from(ids), min_size=h.r, unique=True))
        part_of = draw(st.lists(st.integers(0, h.r - 1), min_size=len(vertices),
                                max_size=len(vertices)))
        parts = [[v for v, i in zip(vertices, part_of) if i == j] for j in range(h.r)]
        if all(parts):
            blocks.append(RPartiteBlock(tuple(parts)))
    return h, Cover(h.r, tuple(blocks))


@settings(SETTINGS, max_examples=40)
@given(case=spread_covers())
def test_profile_matches_listing(case):
    h, c = case
    counts, foreign = naive_profile(h, c)
    profile = multiplicity_profile(h, c)
    assert profile.histogram() == dict(sorted(Counter(counts.values()).items()))
    assert profile.foreign == len(foreign)
    for e, count in [*counts.items(), *foreign.items()]:
        assert profile.count(e) == count
    for lst in LISTS:
        outside = [e for e in h.edges if counts[e] not in lst]
        assert profile.least_outside(lst) == (outside[0] if outside else None)


@st.composite
def complete_covers(draw):
    """K_n^r (n <= 9, 2 <= r <= 4) and up to five random blocks on its vertices."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 9))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        vertices = draw(st.lists(st.integers(0, n - 1), min_size=r, unique=True))
        part_of = draw(st.lists(st.integers(0, r - 1), min_size=len(vertices),
                                max_size=len(vertices)))
        parts = [[v for v, i in zip(vertices, part_of) if i == j] for j in range(r)]
        if all(parts):
            blocks.append(RPartiteBlock(tuple(parts)))
    return n, r, Cover(r, tuple(blocks))


@settings(SETTINGS, max_examples=150)
@given(case=complete_covers())
def test_implicit_complete_profile_matches_listed(case):
    n, r, c = case
    h = complete_hypergraph(n, r)
    implicit = multiplicity_profile(h, c)
    results = [verify_cover(h, c, lst) for lst in LISTS]
    assert "edges" not in vars(h)
    listed = Hypergraph(r, n, h.edges)
    reference = multiplicity_profile(listed, c)
    for name in ("planes", "counts", "least", "foreign", "least_foreign"):
        assert getattr(implicit, name) == getattr(reference, name)
    assert results == [verify_cover(listed, c, lst) for lst in LISTS]
    assert [(res.witness_edge, res.witness_multiplicity) for res in results] == \
        [naive_verify(h, c, lst)[2:] for lst in LISTS]


@settings(SETTINGS, max_examples=40)
@given(case=spread_covers())
def test_cover_json_round_trip(case):
    _, c = case
    text = cover_to_json(c)
    assert cover_from_json(text) == c
    assert cover_to_json(cover_from_json(text)) == text


@st.composite
def symmetric_matrices(draw):
    """A symmetric 0/1 matrix up to 9 x 9, its diagonal included."""
    n = draw(st.integers(0, 9))
    bits = iter(draw(st.lists(st.integers(0, 1), min_size=n * (n + 1) // 2,
                              max_size=n * (n + 1) // 2)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(bits)
    return rows


@settings(SETTINGS, max_examples=60)
@given(matrix=symmetric_matrices())
def test_inertia_matches_characteristic_polynomial(matrix):
    assert inertia(matrix) == naive_inertia(matrix)


FAULTS = (None, None, "vertex-past-n", "true", "2.0", "wrong-r", "missing-key", "truncated",
          "not-an-array")


@st.composite
def verify_documents(draw):
    """(hypergraph text, cover text, fault): a small r-graph and up to four
    blocks on its vertices as JSON documents, spoilt by `fault` unless None."""
    r = draw(st.integers(2, 3))
    n = draw(st.integers(r, 7))
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), r))),
                          max_size=12, unique=True))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        vertices = draw(st.permutations(range(n)))[:draw(st.integers(r, n))]
        blocks.append({"parts": [vertices[i::r] for i in range(r)]})
    h_doc = {"r": r, "n": n, "edges": [list(e) for e in edges]}
    c_doc = {"r": r, "blocks": blocks}
    fault = draw(st.sampled_from(FAULTS))
    if fault in ("vertex-past-n", "true", "2.0"):
        bad = {"vertex-past-n": n + draw(st.integers(0, 3)), "true": True, "2.0": 2.0}[fault]
        if fault != "vertex-past-n" and edges and draw(st.booleans()):
            h_doc["edges"][0][-1] = bad
        elif blocks:
            blocks[0]["parts"][-1][-1] = bad
        else:
            blocks.append({"parts": [[v] for v in range(r - 1)] + [[bad]]})
    elif fault == "wrong-r":
        c_doc["r"] = draw(st.sampled_from([r - 1, r + 1]))
    elif fault == "missing-key":
        doc = draw(st.sampled_from([h_doc, c_doc] + blocks))
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "not-an-array":  # "" and {} once read as no edges, blocks or parts
        doc, key = draw(st.sampled_from([(h_doc, "edges"), (c_doc, "blocks")]
                                        + [(b, "parts") for b in blocks]))
        doc[key] = draw(st.sampled_from(["", {}]))
    h_text, c_text = json.dumps(h_doc), json.dumps(c_doc)
    if fault == "truncated":
        if draw(st.booleans()):
            h_text = h_text[:draw(st.integers(0, len(h_text) - 1))]
        else:
            c_text = c_text[:draw(st.integers(0, len(c_text) - 1))]
    return h_text, c_text, fault


@settings(SETTINGS, max_examples=80)
@given(case=verify_documents(), spec=st.sampled_from(["--partition", "1", "2,3", "1..4", "any"]))
@example(case=('{"r": 2, "n": 3, "edges": ""}', '{"r": 2, "blocks": {}}', "not-an-array"),
         spec="--partition")
def test_verify_command_on_documents(case, spec):
    h_text, c_text, fault = case
    flags = ["--partition"] if spec == "--partition" else ["--list", spec]
    with tempfile.TemporaryDirectory() as tmp:
        h_path, c_path = os.path.join(tmp, "h.json"), os.path.join(tmp, "c.json")
        for path, text in ((h_path, h_text), (c_path, c_text)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--hypergraph", h_path, "--cover", c_path, *flags])
    assert "Traceback" not in err.getvalue()
    lines = out.getvalue().splitlines()
    if fault is not None:
        assert (code, lines) == (cli.EXIT_ERROR, [])
        return
    assert len(lines) == 1
    payload = json.loads(lines[0])
    h, c = hypergraph_from_json(h_text), cover_from_json(c_text)
    counts, foreign = naive_profile(h, c)
    hist = Counter(counts.values())
    assert payload["histogram"] == {str(k): hist[k] for k in sorted(hist)}
    assert payload["foreign"] == len(foreign)
    lst = MultiplicityList.of(1) if spec == "--partition" else MultiplicityList.parse(spec)
    ok, reason, edge, multiplicity = naive_verify(h, c, lst)
    witness = None if ok else {"edge": list(edge), "multiplicity": multiplicity,
                               "reason": reason}
    assert (code, payload["status"], payload["witness"]) == \
        ((cli.EXIT_OK, "ok", None) if ok else (cli.EXIT_FAIL, "fail", witness))


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


# option values: small ints (most often, so that whole command lines often fit
# the guards), powers of ten up to 10^400 and strings that are no number;
# --alpha also takes floats, nan and the infinities included
FLAG_VALUES = {
    "small": st.integers(-3, 12).map(str),
    "power": st.integers(0, 400).map(lambda k: str(10**k)),
    "junk": st.sampled_from(["", "x", "1e3", "2.5", "0x10", "--", "-x", "\u0661\u0662"]),
    "float": st.sampled_from(["nan", "inf", "-inf", "-0.0"]) | st.floats().map(str),
}


@st.composite
def bounds_and_rank_argv(draw):
    """A `bounds` or `rank` command line with each option drawn, or left out."""
    command = draw(st.sampled_from(["rank", *sorted(cli.BOUNDS)]))
    argv, options = (["rank"], ("r", "m")) if command == "rank" else \
        (["bounds", command], cli.BOUNDS[command][1])
    for option in options:
        kinds = ["small"] * 4 + ["power", "junk", "missing"] + ["float"] * 3 * (option == "alpha")
        kind = draw(st.sampled_from(kinds))
        if kind != "missing":
            argv += [f"--{option}", draw(FLAG_VALUES[kind])]
    return argv


@settings(SETTINGS, max_examples=300)
@given(argv=bounds_and_rank_argv())
# the largest certificates the guards admit, and an alpha that is no real
# number, which draws seldom reach
@example(argv=["rank", "--r", "6", "--m", "2"])
@example(argv=["rank", "--r", "4", "--m", "3"])
@example(argv=["bounds", "ks-order", "--n", "8", "--alpha", "nan", "--r", "2"])
@example(argv=["bounds", "ks-order", "--n", "8", "--alpha", "inf", "--r", "2"])
@example(argv=["bounds", "ks-order", "--n", "8", "--alpha", "-inf", "--r", "2"])
def fuzz_bounds_and_rank(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert time.perf_counter() - start < 5.0, argv
    assert code in (cli.EXIT_OK, cli.EXIT_FAIL, 2, cli.EXIT_ERROR), argv
    assert "Traceback" not in err.getvalue()
    lines = out.getvalue().splitlines()
    if code in (cli.EXIT_OK, cli.EXIT_FAIL):
        assert len(lines) == 1, argv
        assert isinstance(json.loads(lines[0], parse_constant=_strict_constant), dict)
    else:
        assert lines == [], argv
        if code == cli.EXIT_ERROR:
            assert err.getvalue().startswith("error:"), argv


def test_bounds_and_rank_argv_fuzz():
    start = time.perf_counter()
    fuzz_bounds_and_rank()
    assert time.perf_counter() - start < 15.0


SEARCH_FAULTS = (None,) * 6 + ("vertex-past-n", "true", "2.0", "missing-key", "truncated",
                                "no-file")
# option values for `search`: valid ones (most often, so that many command
# lines reach a search), then unreachable, guarded or unparsable ones
SEARCH_VALUES = {
    "--list": st.sampled_from(["any", "1", "2", "1,3", "2,3", "1..2", "1..3", "3,1"]) |
    st.sampled_from([" ANY ", "2..2", "0_1", "\u0661..\u0662", "0", "-1", "1,0", "3..1", "1..0",
                     "2,1000000000", "1000000000", "1..1000000000", "1" + "0" * 400, "1" * 5000,
                     "", " ", "x", "1.5", "1e3", "1..", "..2", "1,,2", "1...3", "0x2"]),
    "--max-blocks": st.integers(0, 12).map(str) |
    st.sampled_from(["-1", "-3", "x", "", "2.5", "1e3"]) | FLAG_VALUES["power"],
    "--max-seconds": st.sampled_from(["1e-9", "1e-6", "0.5", "2", "1e300"]) |
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e400", "x", ""]),
}


@st.composite
def search_argv(draw):
    """A `search` command line and the hypergraph document it reads, which is
    small and valid or spoilt by the fault drawn with it ("no-file": the path
    names no file). Each option is drawn or left out."""
    r = draw(st.integers(2, 3))
    n = draw(st.integers(0, 5))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), max_size=10, unique=True)) if pool else []
    doc = {"r": r, "n": n, "edges": [list(e) for e in edges]}
    fault = draw(st.sampled_from(SEARCH_FAULTS))
    if fault in ("vertex-past-n", "true", "2.0"):
        bad = {"vertex-past-n": n + draw(st.integers(0, 3)), "true": True, "2.0": 2.0}[fault]
        if doc["edges"]:
            doc["edges"][0][-1] = bad
        else:
            doc["edges"].append(list(range(r - 1)) + [bad])
    elif fault == "missing-key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc)
    if fault == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    argv = ["search", draw(st.sampled_from(["min-cover"] * 3 + ["min-partition",
                                                                 "min-sum-orders", "min-size"]))]
    for option, values in SEARCH_VALUES.items():
        if draw(st.sampled_from([True, True, False])):
            argv += [option, draw(values)]
    return argv, text, fault


@settings(SETTINGS, max_examples=300)
@given(case=search_argv())
# the largest documents drawn: K_5 with each edge covered twice, and K_5^3
# stopped by its time limit
@example(case=(["search", "min-cover", "--list", "2"],
               hypergraph_to_json(complete_hypergraph(5)), None))
@example(case=(["search", "min-cover", "--list", "2,3", "--max-seconds", "1e-9"],
               hypergraph_to_json(complete_hypergraph(5, 3)), None))
# a proven lower end, 10^399 + 1, that no float holds
@example(case=(["search", "min-cover", "--list", "1" + "0" * 400, "--max-blocks", "1" + "0" * 399],
               hypergraph_to_json(complete_hypergraph(4)), None))
def fuzz_search(case):
    argv, text, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.json")
        if fault != "no-file":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = argv[:2] + ["--file", path] + argv[2:]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
        assert time.perf_counter() - start < 5.0, argv
    assert code in (cli.EXIT_OK, cli.EXIT_UNKNOWN, 2, cli.EXIT_ERROR), argv
    assert "Traceback" not in err.getvalue()
    lines = out.getvalue().splitlines()
    if fault is not None:
        assert code in (2, cli.EXIT_ERROR), argv
    if code in (cli.EXIT_OK, cli.EXIT_UNKNOWN):
        assert len(lines) == 1, argv
        payload = json.loads(lines[0], parse_constant=_strict_constant)
        assert payload["goal"] == argv[1] and payload["exact"] is (code == cli.EXIT_OK)
        assert payload["status"] == ("ok" if code == cli.EXIT_OK else "unknown")
        assert payload["value"] == (payload["lower"] if code == cli.EXIT_OK else None)
    else:
        assert lines == [], argv
        if code == cli.EXIT_ERROR:
            assert err.getvalue().startswith("error:"), argv


def test_search_argv_fuzz():
    start = time.perf_counter()
    fuzz_search()
    assert time.perf_counter() - start < 30.0


# option values for `construct`, per kind: sizes that build in well under a
# second, sizes a guard refuses at once (10^6 and up), and unparsable ones;
# never an allowed but slow size such as hex-cover --m 40 or cube-graph --r 2 --m 7
HUGE = st.integers(6, 400).map(lambda k: str(10**k))
JUNK = st.sampled_from(["", "x", "1.5", "0x2", "1e3", "--"])
CONSTRUCT_SIZES = {
    "hex-cover": {"m": st.integers(-2, 6)},
    "grid3-cover": {"m": st.integers(-2, 6)},
    "star-partition": {"n": st.integers(-2, 40)},
    "log-cover": {"n": st.integers(-2, 40)},
    "cube-graph": {"r": st.integers(-1, 5), "m": st.integers(-1, 2)},
    "pi-partition": {"r": st.integers(-1, 5), "m": st.integers(-1, 2)},
    "label-partition": {"r": st.integers(-1, 6)},
}
OUT_PATHS = ("none",) * 3 + ("fresh",) * 3 + ("shared",) * 2 + ("missing-dir", "directory")


@st.composite
def construct_argv(draw):
    """A `construct` command line, each size option drawn or left out, and for
    each output option one of OUT_PATHS, to be resolved in a scratch folder:
    a new file, one file shared by every option that draws it, a file in a
    folder that does not exist, or the scratch folder itself."""
    kind = draw(st.sampled_from(sorted(CONSTRUCT_SIZES) * 2 + ["hex"]))
    argv = ["construct", kind]
    sizes = CONSTRUCT_SIZES.get(kind, {})
    for option in ("m", "n", "r"):
        size = sizes.get(option, st.integers(-2, 6))
        # an option of the kind is most often given a size, any other left out
        weights = ["size"] * 10 + ["none"] if option in sizes else ["none"] * 10 + ["size"]
        value = draw(st.sampled_from(weights + ["huge", "junk"]))
        if value != "none":
            values = {"size": size.map(str), "huge": HUGE, "junk": JUNK}[value]
            argv += [f"--{option}", draw(values)]
    if kind in ("cube-graph", "pi-partition") and draw(st.booleans()):
        argv += ["--r", str(draw(st.integers(-1, 3))), "--m", "3"]  # a later option wins
    outs = {option: draw(st.sampled_from(OUT_PATHS))
            for option in ("--hypergraph-out", "--cover-out", "--table-out")}
    return argv, outs


@settings(SETTINGS, max_examples=200)
@given(case=construct_argv())
@example(case=(["construct", "pi-partition", "--r", "3", "--m", "3"],
               {"--hypergraph-out": "shared", "--cover-out": "shared", "--table-out": "fresh"}))
@example(case=(["construct", "label-partition", "--r", "5"],
               {"--hypergraph-out": "fresh", "--cover-out": "none", "--table-out": "fresh"}))
@example(case=(["construct", "hex-cover", "--m", "4"],
               {"--hypergraph-out": "fresh", "--cover-out": "missing-dir", "--table-out": "none"}))
@example(case=(["construct", "cube-graph", "--r", "1" + "0" * 400, "--m", "1"],
               {"--hypergraph-out": "fresh", "--cover-out": "none", "--table-out": "none"}))
def fuzz_construct(case):
    argv, outs = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        for option, out in outs.items():
            if out != "none":
                argv += [option, {"fresh": os.path.join(tmp, option[2:] + ".json"),
                                  "shared": os.path.join(tmp, "shared.json"),
                                  "missing-dir": os.path.join(tmp, "missing", "out.json"),
                                  "directory": tmp}[out]]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
        assert time.perf_counter() - start < 5.0, argv
        assert code in (cli.EXIT_OK, 2, cli.EXIT_ERROR), argv
        assert "Traceback" not in err.getvalue()
        lines = out.getvalue().splitlines()
        if code == cli.EXIT_OK:
            assert len(lines) == 1, argv
            payload = json.loads(lines[0], parse_constant=_strict_constant)
            assert payload["kind"] == argv[1]
            assert all(os.path.isfile(path) for path in payload["written"]), argv
        else:
            assert lines == [], argv
            if code == cli.EXIT_ERROR:
                assert err.getvalue().startswith("error:"), argv


def test_construct_argv_fuzz():
    start = time.perf_counter()
    fuzz_construct()
    assert time.perf_counter() - start < 30.0
