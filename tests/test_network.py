import itertools
import json

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from specnet.network import (
    OPEN_END_PREFIX,
    SpectralNetwork,
    classify_vertex,
    is_flow_acyclic,
    network_doc,
    network_to_json,
    to_json,
)


def test_classify_initial():
    stubs = [((1, 2), "out"), ((1, 2), "out"), ((2, 1), "out")]
    assert classify_vertex(stubs) == "initial"


def test_classify_creation_joint():
    stubs = [((1, 2), "in"), ((2, 3), "in"),
             ((1, 2), "out"), ((2, 3), "out"), ((1, 3), "out")]
    assert classify_vertex(stubs) == "interaction_creation"


def test_classify_non_interaction():
    stubs = [((1, 2), "in"), ((3, 4), "in"),
             ((1, 2), "out"), ((3, 4), "out")]
    assert classify_vertex(stubs) == "non_interaction"


def test_classify_inconsistent():
    # composable pair passing through without the (ik) output
    stubs = [((1, 2), "in"), ((2, 3), "in"),
             ((1, 2), "out"), ((2, 3), "out")]
    assert classify_vertex(stubs) == "inconsistent"


def test_classify_hexavalent():
    labels = [(1, 2), (2, 3), (1, 3)]
    stubs = [(l, "in") for l in labels] + [(l, "out") for l in labels]
    assert classify_vertex(stubs) == "interaction_hexavalent"


def _hexavalent_triple(ins) -> bool:
    """The hexavalent rule as a search of its own: some pair (i,j),(j,k)
    among the labels whose (i,k) is a label too."""
    for a in ins:
        for b in ins:
            if a is not b and a[1] == b[0] and (a[0], b[1]) in ins:
                return True
    return False


def test_hexavalent_rule_is_the_composition_rule():
    """On every 3-label multiset over at most 5 sheets, a vertex with those
    labels in and out is hexavalent exactly when the reference search finds
    a composing pair whose (i,k) is among the labels."""
    labels = list(itertools.permutations(range(1, 6), 2))
    hexavalent = 0
    for triple in itertools.combinations_with_replacement(labels, 3):
        stubs = [(l, "in") for l in triple] + [(l, "out") for l in triple]
        if _hexavalent_triple(triple):
            hexavalent += 1
            assert classify_vertex(stubs) == "interaction_hexavalent", triple
        else:
            with pytest.raises(ValueError, match="no local model matches"):
                classify_vertex(stubs)
    assert hexavalent == 60  # one per ordered triple of distinct sheets


def test_classify_rejects_garbage():
    with pytest.raises(ValueError):
        classify_vertex([((1, 2), "in")])


def test_wall_validation():
    net = SpectralNetwork()
    v = net.add_vertex("initial", (0, 0))
    with pytest.raises(ValueError):
        net.add_wall((1, 1), v.id, "end:x", [(0, 0), (1, 0)], 1.0, 0)
    with pytest.raises(ValueError):
        net.add_wall((1, 2), v.id, "end:x", [(0, 0), (1, 0)], -1.0, 0)


def _tripod(label=(1, 2)):
    """One branch point with three open walls."""
    net = SpectralNetwork()
    v = net.add_vertex("initial", (0, 0))
    for k, name in enumerate(("a", "b", "c")):
        lab = label if k < 2 else (label[1], label[0])
        net.add_wall(lab, v.id, OPEN_END_PREFIX + name,
                     [(0, 0), (k + 1, -1)], float(k + 1), 0)
    return net


def test_validate_decorations_tripod():
    net = _tripod()
    net.validate_decorations()
    assert net.inconsistent_vertices() == []


def test_flow_acyclic_true_and_false():
    assert is_flow_acyclic(_tripod())
    # two joints feeding each other with the same label form a flow cycle
    net = SpectralNetwork()
    u = net.add_vertex("inconsistent", (0, 0))
    v = net.add_vertex("inconsistent", (1, 0))
    net.add_wall((1, 2), u.id, v.id, [(0, 0), (1, 0)], 1.0, 0)
    net.add_wall((1, 2), v.id, u.id, [(1, 0), (0, 0)], 1.0, 0)
    assert not is_flow_acyclic(net)


def test_json_carries_schema_and_ids():
    net = _tripod()
    doc = json.loads(network_to_json(net))
    assert doc["schema"] == "spectral-network/1"
    assert [v["id"] for v in doc["vertices"]] == list(range(len(net.vertices)))
    assert [w["id"] for w in doc["walls"]] == list(range(len(net.walls)))


# ----- to_json against json.dumps -----

_FLOATS = st.floats(width=64) | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
_TEXT = st.text(max_size=6) | st.sampled_from(['"quoted"\\ \n\t\x00\x1f', "é ∂ 😀 \ud800", ""])
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 63, max_value=2 ** 200),
    _FLOATS, _FLOATS.map(np.float64), _TEXT)
# the writer's one-join paths: lists of floats or strings, and lists of
# non-empty lists of them (route points)
_ROWS = st.one_of(
    st.lists(_FLOATS, max_size=4), st.lists(_TEXT, max_size=4),
    *(st.lists(st.lists(leaf, min_size=1, max_size=3), max_size=3)
      for leaf in (_FLOATS, _FLOATS.map(np.float64), _TEXT, _LEAVES)))
_DOCS = st.recursive(
    _LEAVES | _ROWS,
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(_TEXT, children)),
    max_leaves=12)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(doc=_DOCS)
def test_to_json_equals_json_dumps(doc):
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_to_json_equals_json_dumps_on_network_docs(builders):
    for builder in builders.values():
        doc = network_doc(builder.to_network())
        assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, [1, {2, 3}], object(),
                                 np.int64(3), [1.5, np.float32(2)], b"bytes"],
                         ids=["int-key", "none-key", "set", "object", "int64", "float32", "bytes"])
def test_to_json_rejects_what_json_cannot_encode(doc):
    with pytest.raises(ValueError):
        to_json(doc)
