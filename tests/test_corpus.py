"""The forest on a seeded random weave corpus: which weaves it rejects, by
name, and the invariants every built weave must meet."""

import hashlib
import random

from specnet.forest import build_forest_strands
from specnet.network import network_to_json
from specnet.nonabel import Transport, augmentation, homotopic_pair
from specnet.weave import Move, Weave, bend_weave, parse_weave

from conftest import (PLUS_MINUS_TWO, assert_arc_walks_equal_solves, assert_basis_walks_are_units,
                      assert_caps_read_off_the_top_line, assert_letters_read_off_the_cuts,
                      assert_wall_classes_walk_as_the_whole_walk,
                      random_weave_texts, top_boundary_fault)

# invariants are checked on built weaves with at most this many strands
STRAND_CAP = 16

# (index among the corpus texts, error class, message prefix) of every draw
# the forest rejects; a draw newly built or newly rejected fails the test
REJECTED = [
    (0, "NonGenericGeometry", "polyline corner hit"),
    (1, "PropagationError", "rightward flowline from ('branch', 2, 'c') with label (1, 2)"),
    (8, "PropagationError", "rightward flowline from ('branch', 0, 'c') with label (2, 3)"),
    (11, "NonGenericGeometry", "polyline corner hit"),
    (23, "PropagationError", "rightward flowline from ('branch', 3, 'c') with label (1, 2)"),
    (27, "PropagationError", "rightward flowline from ('joint', 8, 0) with label (1, 3)"),
    (32, "PropagationError", "rightward flowline from ('joint', 8, 0) with label (1, 3)"),
    (34, "NonGenericGeometry", "polyline corner hit"),
    (44, "PropagationError", "rightward flowline from ('branch', 0, 'c') with label (1, 2)"),
    (50, "PropagationError", "rightward flowline from ('branch', 2, 'c') with label (1, 2)"),
    (52, "NonGenericGeometry", "polyline corner hit"),
    (62, "PropagationError", "rightward flowline from ('branch', 2, 'c') with label (1, 2)"),
    (69, "PropagationError", "rightward flowline from ('branch', 1, 'c') with label (2, 3)"),
    (77, "PropagationError", "rightward flowline from ('branch', 0, 'c') with label (2, 3)"),
    (79, "PropagationError", "rightward flowline from ('branch', 1, 'c') with label (1, 2)"),
    (98, "PropagationError", "rightward flowline from ('joint', 8, 0) with label (1, 3)"),
    (105, "PropagationError", "rightward flowline from ('joint', 8, 0) with label (1, 3)"),
    (123, "NonGenericGeometry", "polyline corner hit"),
    (129, "PropagationError", "rightward flowline from ('joint', 8, 0) with label (1, 3)"),
    (133, "NonGenericGeometry", "polyline corner hit"),
    (134, "PropagationError", "rightward flowline from ('joint', 11, 3) with label (1, 3)"),
    (136, "PropagationError", "rightward flowline from ('branch', 2, 'c') with label (2, 3)"),
    (141, "PropagationError", "rightward flowline from ('branch', 0, 'c') with label (2, 3)"),
    (153, "NonGenericGeometry", "polyline corner hit"),
    (156, "NonGenericGeometry", "polyline corner hit"),
    (159, "PropagationError", "rightward flowline from ('branch', 2, 'c') with label (1, 2)"),
    (169, "PropagationError", "rightward flowline from ('branch', 1, 'c') with label (2, 3)"),
    (174, "NonGenericGeometry", "polyline corner hit"),
    (175, "PropagationError", "rightward flowline from ('joint', 8, 0) with label (1, 3)"),
    (182, "NonGenericGeometry", "polyline corner hit"),
    (186, "PropagationError", "rightward flowline from ('joint', 14, 0) with label (1, 3)"),
]

# (index among the corpus texts, reason) of every built weave on which
# top_boundary_fault finds a chord whose top transport coefficient c_q and
# augmentation value have different monomials; which side is wrong is open
TOP_BOUNDARY_DIFFER = [(index, PLUS_MINUS_TWO)
                       for index in (2, 14, 95, 101, 106, 126, 135, 166, 176)]

# sha256 of network_to_json(builder.to_network()) over every built weave of
# each corpus, in order: the forest's strand routes, joints and labels byte
# for byte beyond the fixtures
CORPUS_DIGEST = "394f1cdb9a9070bebe34b9cf8eeb5e66ef13078190f71bbdfcec82a40c218676"
CORPUS_DIGEST_N4 = "b16e53d8a09f771bde93a7c8ca99c50e0ccb7c4cd82784339720b30596446732"


def test_random_corpus_rejections_and_invariants():
    """400 draws at seed 7 give 193 reduced bottoms; the forest builds 162
    of them and rejects exactly the 31 in REJECTED.  On each built weave
    the letters read off the cuts are the loop-built ones
    (``assert_letters_read_off_the_cuts``), each b-strand walks to its unit
    class (``assert_basis_walks_are_units``),
    each t_i's walk equals the boundary arc's solve
    (``assert_arc_walks_equal_solves``), every cap read off the top line
    equals the whole cap (``assert_caps_read_off_the_top_line``), every
    wall class at a birth param or chord end walks on from its prefix
    states as the whole walk does
    (``assert_wall_classes_walk_as_the_whole_walk``), and the
    top-boundary identity with the augmentation holds, with c_q and the
    augmentation's monomials different on exactly the weaves of
    TOP_BOUNDARY_DIFFER.  On each built
    weave of at most STRAND_CAP strands (128 weaves), every branch and
    joint monodromy is the identity, the BPS recursion equals brute force
    and two seeded homotopic path pairs transport alike.  The built
    weaves' network exports hash to CORPUS_DIGEST."""
    texts = list(random_weave_texts(7, 400))
    assert len(texts) == 193
    rejected, differ, checked, digest = [], [], 0, hashlib.sha256()
    for index, text in enumerate(texts):
        try:
            builder = build_forest_strands(bend_weave(parse_weave(text)))
        except RuntimeError as err:
            rejected.append((index, type(err).__name__, str(err)))
            continue
        digest.update(network_to_json(builder.to_network()).encode())
        transport = Transport(builder)
        assert_letters_read_off_the_cuts(transport.engine)
        assert_basis_walks_are_units(transport.engine)
        assert_arc_walks_equal_solves(transport.engine)
        assert_caps_read_off_the_top_line(transport)
        assert_wall_classes_walk_as_the_whole_walk(transport)
        fault = top_boundary_fault(transport, augmentation(builder.bent))
        if fault is not None:
            differ.append((index, fault))
        if len(builder.strands) > STRAND_CAP:
            continue
        loops = [transport.branch_monodromy(v.id) for v in builder.weave.trivalent_vertices()]
        loops += [transport.joint_monodromy(joint) for joint in builder.joints]
        assert all(transport.is_identity(m) for m in loops), text
        assert transport.catalog.bps_table() == transport.catalog.bps_table_bruteforce(), text
        rng = random.Random("corpus:%d" % index)
        for _ in range(2):
            p, q = homotopic_pair(transport, rng)
            assert transport.transport_path(p) == transport.transport_path(q), text
        checked += 1
    assert [entry[:2] for entry in rejected] == [entry[:2] for entry in REJECTED]
    assert all(message.startswith(prefix)
               for (_, _, message), (_, _, prefix) in zip(rejected, REJECTED)), rejected
    assert differ == TOP_BOUNDARY_DIFFER
    assert checked == 128
    assert digest.hexdigest() == CORPUS_DIGEST


# (index among the n = 4 corpus texts, error class, message prefix) of every
# draw the forest rejects
REJECTED_N4 = [
    (1, "PropagationError", "rightward flowline from ('branch', 0, 'c') with label (3, 4)"),
    (4, "PropagationError", "rightward flowline from ('branch', 0, 'c') with label (2, 3)"),
    (14, "PropagationError", "rightward flowline from ('branch', 0, 'c') with label (2, 3)"),
    (25, "PropagationError", "rightward flowline from ('branch', 3, 'c') with label (2, 3)"),
    (30, "NonGenericGeometry", "polyline corner hit"),
    (36, "PropagationError", "rightward flowline from ('branch', 2, 'c') with label (2, 3)"),
    (57, "PropagationError", "rightward flowline from ('branch', 2, 'c') with label (3, 4)"),
    (69, "PropagationError", "rightward flowline from ('branch', 0, 'c') with label (3, 4)"),
    (74, "NonGenericGeometry", "polyline corner hit"),
    (75, "PropagationError", "rightward flowline from ('branch', 1, 'c') with label (2, 3)"),
    (94, "NonGenericGeometry", "polyline corner hit"),
    (114, "PropagationError", "rightward flowline from ('branch', 4, 'c') with label (3, 4)"),
    (124, "PropagationError", "rightward flowline from ('branch', 1, 'c') with label (3, 4)"),
]

# (index among the n = 4 corpus texts, reason) as in TOP_BOUNDARY_DIFFER;
# #13 is n=4 / top: 3 3 2 2 2 3 / moves: t3 t1 t2 h1 h1 h1 h1 h1, where at
# z_1 c_q is 0 and the augmentation 2*s_3^-1*s_5^-1
TOP_BOUNDARY_DIFFER_N4 = [(13, PLUS_MINUS_TWO)]


def test_four_strand_corpus_with_x_moves():
    """300 n = 4 draws at seed 4, with t, h and x moves, give 126 reduced
    bottoms; the forest builds 113 of them and rejects exactly the 13 in
    REJECTED_N4.  82 built weaves have an x move, and in 36 a strand
    climbs through a tetravalent vertex (passing delta left of its point).
    On every built weave the letters read off the cuts are the loop-built
    ones, each b-strand walks to its unit class, each t_i's
    walk equals the boundary arc's solve, every cap read off the top line
    equals the whole cap, every wall class at a birth param or chord end
    walks on from its prefix states as the whole walk does, each branch
    and joint monodromy is the identity, the BPS recursion equals brute
    force, two seeded homotopic path pairs transport alike and the
    top-boundary identity with the augmentation holds, with c_q and the
    augmentation's monomials different on exactly the weaves of
    TOP_BOUNDARY_DIFFER_N4.  The built weaves' network exports hash to
    CORPUS_DIGEST_N4."""
    texts = list(random_weave_texts(4, 300, 4))
    assert len(texts) == 126
    rejected, differ, with_x, climbing, digest = [], [], 0, 0, hashlib.sha256()
    for index, text in enumerate(texts):
        try:
            builder = build_forest_strands(bend_weave(parse_weave(text)))
        except RuntimeError as err:
            rejected.append((index, type(err).__name__, str(err)))
            continue
        digest.update(network_to_json(builder.to_network()).encode())
        x_points = [v.point for v in builder.weave.vertices if v.kind == "tetravalent"]
        with_x += bool(x_points)
        climbing += any((x - s.delta, y) in polyline
                        for s, polyline in ((s, s.polyline) for s in builder.strands)
                        for x, y in x_points)
        transport = Transport(builder)
        assert_letters_read_off_the_cuts(transport.engine)
        assert_basis_walks_are_units(transport.engine)
        assert_arc_walks_equal_solves(transport.engine)
        assert_caps_read_off_the_top_line(transport)
        assert_wall_classes_walk_as_the_whole_walk(transport)
        loops = [transport.branch_monodromy(v.id) for v in builder.weave.trivalent_vertices()]
        loops += [transport.joint_monodromy(joint) for joint in builder.joints]
        assert all(transport.is_identity(m) for m in loops), text
        assert transport.catalog.bps_table() == transport.catalog.bps_table_bruteforce(), text
        rng = random.Random("corpus-n4:%d" % index)
        for _ in range(2):
            p, q = homotopic_pair(transport, rng)
            assert transport.transport_path(p) == transport.transport_path(q), text
        fault = top_boundary_fault(transport, augmentation(builder.bent))
        if fault is not None:
            differ.append((index, fault))
    assert [entry[:2] for entry in rejected] == [entry[:2] for entry in REJECTED_N4]
    assert all(message.startswith(prefix)
               for (_, _, message), (_, _, prefix) in zip(rejected, REJECTED_N4)), rejected
    assert differ == TOP_BOUNDARY_DIFFER_N4
    assert (len(texts) - len(rejected), with_x, climbing) == (113, 82, 36)
    assert digest.hexdigest() == CORPUS_DIGEST_N4


# (index, error class, message prefix) of every built corpus weave that the
# forest rejects once h_p h_p is inserted
REJECTED_DOUBLED = [(index, "NonGenericGeometry", "polyline corner hit")
                    for index in (14, 18, 41, 54, 63, 70, 85, 106, 107, 112, 113, 132,
                                  135, 152, 176, 179, 184, 188)]


def _doubled_hexavalent(weave):
    """The moves of the weave with h_p h_p inserted at its first slice that
    has an (a, b, a) window with |a - b| = 1, at the first such window; None
    where no slice has one."""
    for row, word in enumerate(weave.slices):
        for p in range(len(word) - 2):
            a, b, c = word[p:p + 3]
            if a == c and abs(a - b) == 1:
                return weave.moves[:row] + [Move("h", p + 1)] * 2 + weave.moves[row:]
    return None


def test_doubled_hexavalent_move_keeps_the_corpus_tables():
    """Criterion 4 on the corpus: on each seed-7 weave that builds, h_p h_p
    inserted at the first (a, b, a) window leaves the augmentation table
    as it was.  109 tables are equal, 35 weaves have no window, and the
    18 weaves of REJECTED_DOUBLED no longer build."""
    rejected_before = {index for index, _, _ in REJECTED}
    equal, windowless, rejected = 0, 0, []
    for index, text in enumerate(random_weave_texts(7, 400)):
        if index in rejected_before:
            continue
        weave = parse_weave(text)
        moves = _doubled_hexavalent(weave)
        if moves is None:
            windowless += 1
            continue
        try:
            table = augmentation(bend_weave(Weave(weave.strand_count, weave.top, moves)))
        except RuntimeError as err:
            rejected.append((index, type(err).__name__, str(err)))
            continue
        assert table == augmentation(bend_weave(weave)), text
        equal += 1
    assert [entry[:2] for entry in rejected] == [entry[:2] for entry in REJECTED_DOUBLED]
    assert all(message.startswith(prefix)
               for (_, _, message), (_, _, prefix) in zip(rejected, REJECTED_DOUBLED)), rejected
    assert (equal, windowless) == (109, 35)
