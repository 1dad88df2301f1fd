import pytest
from hypothesis import given, settings, strategies as st

from specnet.forest import PropagationError, build_forest_strands
from specnet.soliton_bps import HomologyEngine
from specnet.weave import (
    MAX_LETTERS,
    MAX_STRANDS,
    Move,
    Weave,
    bend_weave,
    demazure_product,
    parse_weave,
)

from conftest import EXAMPLES, X_MOVE_WEAVES, random_weave_texts

SIGMA1_6 = """
n=2
top: 1 1 1 1 1 1
moves: t5 t3 t2 t1 t1
"""

THREE_STRAND = """
n=3
top: 2 1 2 1 2 1 2
moves: h1 t3 h2 t1 t3 h2 t1
"""


def test_parse_and_slices():
    weave = parse_weave(SIGMA1_6)
    assert weave.strand_count == 2
    assert [len(s) for s in weave.slices] == [6, 5, 4, 3, 2, 1]
    assert weave.bottom == (1,)

    weave = parse_weave(THREE_STRAND)
    assert weave.top == (2, 1, 2, 1, 2, 1, 2)
    assert weave.bottom == (1, 2, 1)
    assert [len(s) for s in weave.slices] == [7, 7, 6, 6, 5, 4, 4, 3]


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_weave("top: 1 1")  # no strand count
    with pytest.raises(ValueError):
        parse_weave("n=2\ntop: 1 2")  # letter out of range
    with pytest.raises(ValueError):
        parse_weave("n=2\ntop: 1 1\nmoves: q1")  # unknown move kind
    with pytest.raises(ValueError):
        parse_weave("n=2\ntop: 1 1\nmoves: t2")  # move out of range


def test_parse_weave_names_an_unrecognized_line():
    with pytest.raises(ValueError, match="unrecognized line 'bogus line'"):
        parse_weave("n=2\ntop: 1 1\nbogus line")


def test_parse_weave_rejects_repeated_headers():
    with pytest.raises(ValueError, match="repeated header line 'n=4'"):
        parse_weave("n=3\ntop: 1 2 1\nn=4")
    with pytest.raises(ValueError, match="repeated header line 'top: 2 1 2'"):
        parse_weave("n=3\ntop: 1 2 1\ntop: 2 1 2")


@pytest.mark.parametrize("text, message", [
    ("n=x\ntop: 1 1", "malformed strand count 'x'"),
    ("n=\ntop: 1 1", "malformed strand count ''"),
    ("n=2\ntop: 1 x", "malformed top letter 'x'"),
    ("n=2\ntop: 1, 1.5", "malformed top letter '1.5'"),
    ("n=2\ntop: 1 1\nmoves: t\u00b2", "malformed move token 't\u00b2'"),
])
def test_parse_weave_names_a_malformed_number(text, message):
    """A header or move number that is no integer is named in the error,
    not reported as int()'s "invalid literal"."""
    with pytest.raises(ValueError) as raised:
        parse_weave(text)
    assert str(raised.value) == message


def test_parse_weave_keeps_signed_numbers_for_the_range_checks():
    """Numbers int() reads still reach the range checks, which name them."""
    with pytest.raises(ValueError, match=r"letter -1 out of range \[1, 1\]"):
        parse_weave("n=2\ntop: 1 -1")
    assert parse_weave("n= +2\ntop: 1").strand_count == 2


def test_parse_weave_accumulates_moves_lines():
    assert parse_weave("n=3\ntop: 2 1 2 1 2\nmoves: h1 t3\nmoves: h2 t1").moves == \
        parse_weave(EXAMPLES["five_crossing"]).moves


def test_parse_weave_bounds_the_strand_count():
    assert parse_weave("n=%d\ntop: 1 1" % MAX_STRANDS).strand_count == MAX_STRANDS
    with pytest.raises(ValueError, match=r"weave has 17 strands \(limit: 16\)"):
        parse_weave("n=%d\ntop: 1 1" % (MAX_STRANDS + 1))


def test_parse_weave_bounds_the_top_word():
    assert len(parse_weave("n=2\ntop: %s" % " ".join(["1"] * MAX_LETTERS)).top) == MAX_LETTERS
    with pytest.raises(ValueError, match=r"weave top has 65 letters \(limit: 64\)"):
        parse_weave("n=2\ntop: %s" % " ".join(["1"] * (MAX_LETTERS + 1)))


def test_parse_weave_rejects_local_model_violations():
    # trivalent on unequal letters
    with pytest.raises(ValueError, match="trivalent requires equal letters at position 1"):
        parse_weave("n=3\ntop: 1 2\nmoves: t1")
    # hexavalent needs (a, b, a) with adjacent a, b
    with pytest.raises(ValueError, match=r"hexavalent requires \(a,b,a\) with \|a-b\|=1"):
        parse_weave("n=3\ntop: 1 2 2\nmoves: h1")
    # tetravalent needs distant letters
    with pytest.raises(ValueError, match=r"tetravalent requires \|a-b\|>1 at position 1"):
        parse_weave("n=3\ntop: 1 2\nmoves: x1")
    # out-of-range top letter
    with pytest.raises(ValueError, match="letter 2 out of range"):
        parse_weave("n=2\ntop: 2")


def test_vertex_structure():
    weave = parse_weave(THREE_STRAND)
    kinds = [v.kind for v in weave.vertices]
    assert kinds == [
        "hexavalent", "trivalent", "hexavalent", "trivalent",
        "trivalent", "hexavalent", "trivalent",
    ]
    for vertex in weave.vertices:
        ups = vertex.upper
        downs = [s for s in weave.segments if s.points[0] == vertex.point]
        if vertex.kind == "trivalent":
            assert len(ups) == 2 and len(downs) == 1
        elif vertex.kind == "hexavalent":
            assert len(ups) == 3 and len(downs) == 3
        else:
            assert len(ups) == 2 and len(downs) == 2


def _reference_climb(bent):
    """{piece id: id of the piece above it, or None} and {vertex id: ids of
    its upper pieces}, from the pieces' end points alone.  At a slot the
    piece above is the one piece ending there; at a vertex it is the left
    upper piece for a trivalent vertex and otherwise the upper piece that
    mirrors this piece's place among the lower ones; at the top boundary
    there is none."""
    weave = bent.weave
    pieces = weave.segments + bent.bent_segments
    starting, ending = {}, {}
    for seg in pieces:
        starting.setdefault(seg.points[0], []).append(seg)
        ending.setdefault(seg.points[-1], []).append(seg)
    vertex_at = {v.point: v for v in weave.vertices}
    uppers = {v.id: sorted(ending[v.point], key=lambda s: s.points[0][0])
              for v in weave.vertices}
    above = {}
    for seg in pieces:
        start = seg.points[0]
        vertex = vertex_at.get(start)
        if vertex is None:
            below_start = ending.get(start, [])
            assert len(below_start) == (0 if start[1] == 0 else 1)
            above[seg.id] = below_start[0].id if below_start else None
            continue
        lower = sorted(starting[start], key=lambda s: s.points[-1][0])
        j = lower.index(seg)
        ups = uppers[vertex.id]
        above[seg.id] = (ups[0] if vertex.kind == "trivalent" else ups[len(ups) - 1 - j]).id
    return above, {vid: [s.id for s in ups] for vid, ups in uppers.items()}


def test_links_follow_the_reference_climb():
    """On the fixtures, the seed-7 corpus, the two n = 4 x-move weaves and
    the n = 4 corpus, each piece's ``above`` and each vertex's ``upper``
    equal the climb derived from the pieces' end points alone."""
    texts = (list(EXAMPLES.values()) + list(random_weave_texts(7, 400)) + X_MOVE_WEAVES
             + list(random_weave_texts(4, 300, 4)))
    assert len(texts) == 5 + 193 + 2 + 126
    kinds = set()
    for text in texts:
        bent = bend_weave(parse_weave(text))
        above, upper = _reference_climb(bent)
        for seg in bent.weave.segments + bent.bent_segments:
            assert (seg.above.id if seg.above else None) == above[seg.id], text
        for vertex in bent.weave.vertices:
            assert [s.id for s in vertex.upper] == upper[vertex.id], text
            kinds.add(vertex.kind)
    assert kinds == {"trivalent", "hexavalent", "tetravalent"}


def _generators(builder):
    """(vertex, generator name, top position of the chord its b-strand
    reaches) for each trivalent vertex, in the forest's bottom-to-top scan
    order.  The engine names generator s_k after that chord, z_k."""
    engine = HomologyEngine(builder)
    out = {}
    for sid, name in zip(engine.basis_strands, engine.gen_names):
        strand = builder.strands[sid]
        assert strand.origin[2] == "b" and strand.chord == "z_" + name[2:]
        out[strand.origin[1]] = (name, builder.bent.top_positions[strand.chord])
    return [(v,) + out[v.id] for v in builder.scan_vertices()]


def test_cycle_generators_one_strand_pair(builders):
    # Six-crossing two-strand weave: generator k is named after chord z_k.
    gens = _generators(builders["sigma1_6"])
    by_row = {v.row: (name, position) for v, name, position in gens}
    assert [by_row[r][0] for r in range(5)] == ["s_1", "s_3", "s_4", "s_5", "s_2"]
    assert [by_row[r][1] for r in range(5)] == [6, 4, 3, 2, 5]
    # scan order is bottom-to-top
    assert [name for _, name, _ in gens] == ["s_2", "s_5", "s_4", "s_3", "s_1"]


def test_cycle_generators_three_crossing_pair(builders):
    gens_a = _generators(builders["mutation_a"])
    assert [name for _, name, _ in gens_a] == ["s_2", "s_1"]
    assert [position for _, _, position in gens_a] == [2, 3]
    gens_b = _generators(builders["mutation_b"])
    assert [name for _, name, _ in gens_b] == ["s_1", "s_2"]
    assert [position for _, _, position in gens_b] == [3, 2]


def test_cycle_generators_rank_three(builders):
    gens = _generators(builders["three_strand"])
    assert [name for _, name, _ in gens] == ["s_1", "s_2", "s_3", "s_4"]
    assert [position for _, _, position in gens] == [7, 6, 5, 4]

    gens = _generators(builders["five_crossing"])
    assert [name for _, name, _ in gens] == ["s_1", "s_2"]
    assert [position for _, _, position in gens] == [5, 4]


def test_bend_weave_boundary():
    bent = bend_weave(parse_weave(SIGMA1_6))
    assert (bent.strand_count, bent.weave.top + bent.weave.bottom) == (2, (1,) * 7)
    assert bent.chord_names == ["z_6", "z_5", "z_4", "z_3", "z_2", "z_1", "w_1"]
    xs = [bent.top_positions[name] for name in bent.chord_names]
    assert xs == sorted(xs)
    assert bent.marked_x > xs[-1]

    bent = bend_weave(parse_weave(THREE_STRAND))
    assert (bent.strand_count, bent.weave.top + bent.weave.bottom) == \
        (3, (2, 1, 2, 1, 2, 1, 2, 1, 2, 1))
    assert bent.chord_names == (
        ["z_%d" % k for k in range(7, 0, -1)] + ["w_3", "w_2", "w_1"])
    assert len(bent.bent_segments) == 3


def test_bent_lines_are_nested():
    bent = bend_weave(parse_weave(THREE_STRAND))
    depth = len(bent.weave.moves)
    for p, seg in enumerate(bent.bent_segments):
        (x_top, y_top), (_, y_low), (x_in, _), (_, y_end) = seg.points
        assert y_top == 0 and y_end == -depth
        assert x_in == p + 1
        assert seg.letter == bent.weave.bottom[p]
        # outer lines (smaller p) drop lower and rise farther right
        if p > 0:
            prev = bent.bent_segments[p - 1]
            assert prev.points[0][0] > x_top
            assert prev.points[1][1] < y_low


# ----- property tests: random legal weaves (random-walk construction) -----

@settings(deadline=None)  # the forest grows within each example
@given(st.integers(2, 4), st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=12),
       st.randoms())
def test_random_weave_invariants(n, seeds, rng):
    top = tuple(rng.choice(range(1, n)) for _ in range(rng.randint(1, 8)))
    from specnet.weave import _apply_move

    word = top
    moves = []
    for seed in seeds:
        candidates = []
        for p in range(len(word) - 1):
            if word[p] == word[p + 1]:
                candidates.append(Move("t", p + 1))
            elif abs(word[p] - word[p + 1]) > 1:
                candidates.append(Move("x", p + 1))
        for p in range(len(word) - 2):
            if word[p] == word[p + 2] and abs(word[p] - word[p + 1]) == 1:
                candidates.append(Move("h", p + 1))
        if not candidates:
            break
        move = candidates[seed % len(candidates)]
        moves.append(move)
        word = _apply_move(word, move)

    weave = Weave(n, top, moves)
    assert weave.bottom == word
    # every move preserves the Demazure product of the slice
    products = {demazure_product(n, s) for s in weave.slices}
    assert len(products) == 1
    # slice lengths drop by one exactly at trivalent moves
    for move, before, after in zip(weave.moves, weave.slices, weave.slices[1:]):
        assert len(before) - len(after) == (1 if move.kind == "t" else 0)
    # bending preserves letters and reaches the top
    bent = bend_weave(weave)
    assert tuple(seg.letter for seg in bent.bent_segments) == weave.bottom
    # where the forest grows, every trivalent vertex's b-strand reaches its
    # own beta chord, so each generator s_k has a distinct name
    try:
        builder = build_forest_strands(bent)
    except (ValueError, RuntimeError, PropagationError):
        return  # a non-reduced bottom, or geometry the forest rejects
    chords = [s.chord for s in builder.strands if s.origin[::2] == ("branch", "b")]
    assert len(chords) == len(weave.trivalent_vertices())
    assert len(set(chords)) == len(chords)
    assert all(chord.startswith("z_") for chord in chords)
