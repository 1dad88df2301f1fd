"""End-to-end acceptance gate: one test (and one PASS line) per criterion."""

import cmath
import math
import random
import time
from itertools import permutations

import pytest

from specnet.laurent import parse_laurent
from specnet.network import is_flow_acyclic
from specnet.nonabel import (
    LocalSystemRank1,
    Transport,
    augmentation,
    chord_map,
    homotopic_pair,
)
from specnet.soliton_bps import SolitonCatalog
from specnet.weave import bend_weave, parse_weave
from specnet.wkb import SpectralCurve, branch_points, build_wkb_network

from conftest import EXAMPLES

GENS_2 = ("s_1", "s_2")
GENS_5 = ("s_1", "s_2", "s_3", "s_4", "s_5")
GENS_4 = ("s_1", "s_2", "s_3", "s_4")

SIGMA1_6_TABLE = {
    "z_1": "s_1",
    "z_2": "s_2 - s_1^-1 - s_3^-1 + s_3^-2*s_4^-1 - s_3^-2*s_4^-2*s_5^-1",
    "z_3": "s_3",
    "z_4": "s_4 - s_3^-1",
    "z_5": "s_5 - s_4^-1",
    "z_6": "-s_5^-1 + s_2^-1*s_3^-2*s_4^-2*s_5^-2",
    "w_1": "s_1^-2*s_2^-1 - s_1^-1",
    "t_1": "-s_1^-1*s_2^-1*s_3^-1*s_4^-1*s_5^-1",
    "t_2": "s_1*s_2*s_3*s_4*s_5",
}

THREE_STRAND_TABLE = {
    "z_1": "s_1 - s_2*s_3^-1 - s_4^-1",
    "z_2": "s_2 + s_3*s_4^-1",
    "z_3": "s_3",
    "z_4": "s_4",
    "z_5": "s_1^-1*s_2*s_3^-2*s_4 - s_3^-1*s_4",
    "z_6": "s_1^-1*s_2*s_3^-2 - s_3^-1 + s_1^-1*s_3^-1*s_4^-1",
    "z_7": "-s_2^-1*s_3*s_4^-2 - s_4^-1",
    "w_1": "-s_1^-1",
    "w_2": "-s_2^-1",
    "w_3": "s_1*s_2^-1 - s_3^-1",
    "t_1": "-s_1^-1*s_3^-1",
    "t_2": "-s_1*s_2^-1*s_3*s_4^-1",
    "t_3": "-s_2*s_4",
}

MUTATION_A_TABLE = {  # the seed whose z_1 chord stays a cluster variable
    "z_1": "s_1",
    "z_2": "s_2 - s_1^-1",
    "z_3": "-s_2^-1",
    "w_1": "s_1^-2*s_2^-1 - s_1^-1",
    "t_1": "-s_1^-1*s_2^-1",
    "t_2": "-s_1*s_2",
}

MUTATION_B_TABLE = {  # the mutated seed
    "z_1": "s_1 - s_2^-1",
    "z_2": "s_2",
    "z_3": "-s_2^-1 + s_1^-1*s_2^-2",
    "w_1": "-s_1^-1",
    "t_1": "-s_1^-1*s_2^-1",
    "t_2": "-s_1*s_2",
}


def _check_table(text, expected, gens):
    table = augmentation(bend_weave(parse_weave(text)))
    assert set(expected) <= set(table)
    for name, want in expected.items():
        assert table[name] == parse_laurent(want, gens), name
    return table


def test_criterion_01_two_strand_six_crossing_table():
    start = time.perf_counter()
    _check_table(EXAMPLES["sigma1_6"], SIGMA1_6_TABLE, GENS_5)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed
    print("\nPASS criterion 1: six-crossing two-strand augmentation, "
          "all 9 values exact (%.2fs)" % elapsed)


def test_criterion_02_three_strand_table():
    start = time.perf_counter()
    _check_table(EXAMPLES["three_strand"], THREE_STRAND_TABLE, GENS_4)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "took %.2fs" % elapsed
    print("\nPASS criterion 2: seven-crossing three-strand augmentation, "
          "all 13 values exact (%.2fs)" % elapsed)


def test_criterion_03_mutation_pair():
    table_a = _check_table(EXAMPLES["mutation_a"], MUTATION_A_TABLE, GENS_2)
    table_b = _check_table(EXAMPLES["mutation_b"], MUTATION_B_TABLE, GENS_2)
    for i in (1, 2):
        assert table_a["t_%d" % i] == table_b["t_%d" % i]
    print("\nPASS criterion 3: both mutation tables exact; "
          "marked-point values agree across the pair")


def test_criterion_04_double_hexavalent_cancellation():
    mapping = chord_map(parse_weave("n=3\ntop: 2 1 2\nmoves: h1 h1"))
    for k in (1, 2, 3):
        name = "z_%d" % k
        value = mapping[name]
        assert value == parse_laurent(name, value.gens), name
    print("\nPASS criterion 4: double hexavalent move induces the "
          "identity chord map on z_1, z_2, z_3")


def test_criterion_05_monodromy_suite(builders):
    total = 0
    for name, builder in builders.items():
        transport = Transport(builder)
        rng = random.Random(11)
        systems = [LocalSystemRank1.random(transport, rng)
                   for _ in range(20)]
        loops = [transport.branch_monodromy(v.id)
                 for v in builder.weave.trivalent_vertices()]
        loops += [transport.joint_monodromy(j) for j in builder.joints]
        for matrix in loops:
            assert transport.is_identity(matrix), name
            for ls in systems:
                numeric = ls.evaluate_matrix(matrix)
                assert numeric == [[1 if i == j else 0
                                    for j in range(transport.n)]
                                   for i in range(transport.n)], name
        total += len(loops)
    print("\nPASS criterion 5: %d branch/joint monodromies are the exact "
          "identity and evaluate to the numeric identity in 20 random "
          "rank-1 local systems per network" % total)


def test_criterion_06_homotopy_invariance(builders):
    for name, builder in builders.items():
        transport = Transport(builder)
        rng = random.Random(23)
        for k in range(100):
            p, q = homotopic_pair(transport, rng)
            a = transport.transport_path(p)
            b = transport.transport_path(q)
            assert a == b, (name, k)
    print("\nPASS criterion 6: 100 randomized homotopic path pairs per "
          "example network transport identically")


def test_criterion_07_bps_recursion_vs_bruteforce(builders):
    walls = 0
    for name, builder in builders.items():
        catalog = SolitonCatalog(builder)
        assert catalog.bps_table() == catalog.bps_table_bruteforce(), name
        walls += len(builder.strands)
    print("\nPASS criterion 7: recursive BPS indices equal the brute-force "
          "signed tree enumeration on all %d walls" % walls)


def _airy_directions(theta):
    start = time.perf_counter()
    net = build_wkb_network(SpectralCurve("w^2 - z"), theta, 10.0, 5.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed
    assert len(net.traced) == 3
    assert net.joints_info == []
    rot = cmath.exp(-1j * theta)
    for wall in net.traced:
        for Z in wall.charges:
            assert abs((rot * Z).imag) <= 1e-6 * (1 + abs(Z))
    return sorted(cmath.phase(w.points[-1]) for w in net.traced)


def test_criterion_08_airy_tracer():
    third = 2 * math.pi / 3
    for theta in (0.0, 0.3):
        dirs = _airy_directions(theta)
        expected = sorted(((d + 2 * theta / 3 + math.pi) % (2 * math.pi))
                          - math.pi for d in (-third, 0.0, third))
        for got, want in zip(dirs, expected):
            assert abs(got - want) < 1e-3, theta
    print("\nPASS criterion 8: Airy curve yields 3 constant-phase rays at "
          "{0, +-2pi/3}, rotating by 2 theta/3")


def _graph_signature(net):
    """Directed multigraph data for kind-preserving isomorphism search."""
    vertices = {v.id: v.kind for v in net.vertices}
    edges = []
    leaves = {v: 0 for v in vertices}
    for wall in net.walls:
        if isinstance(wall.target, int):
            edges.append((wall.source, wall.target))
        else:
            leaves[wall.source] += 1
    return vertices, sorted(edges), leaves


def _isomorphic(net_a, net_b):
    va, ea, la = _graph_signature(net_a)
    vb, eb, lb = _graph_signature(net_b)
    if sorted(va.values()) != sorted(vb.values()) or len(ea) != len(eb):
        return False
    ids_a = sorted(va)
    for perm in permutations(sorted(vb), len(ids_a)):
        mapping = dict(zip(ids_a, perm))
        if any(va[u] != vb[mapping[u]] for u in ids_a):
            continue
        if any(la[u] != lb[mapping[u]] for u in ids_a):
            continue
        mapped = sorted((mapping[s], mapping[t]) for s, t in ea)
        if mapped == eb:
            return True
    return False


def test_criterion_09_cubic_tracer(builders):
    start = time.perf_counter()
    curve = SpectralCurve("w^3 - 3*w + x")
    bps = sorted(branch_points(curve), key=lambda b: b.real)
    assert len(bps) == 2
    assert abs(bps[0] + 2) < 1e-9 and abs(bps[1] - 2) < 1e-9
    net = build_wkb_network(curve, 0.3, 12.0, 8.0)
    primary = [w for w in net.traced if w.origin[0] == "bp"]
    secondary = [w for w in net.traced if w.origin[0] == "joint"]
    assert len(primary) == 6
    assert len(secondary) == 2
    net.validate_decorations()
    forest_net = builders["five_crossing"].to_network()
    assert _isomorphic(net, forest_net)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, "took %.2fs" % elapsed
    print("\nPASS criterion 9: cubic curve has branch points at +-2, "
          "6 primary + 2 secondary walls, and its decorated graph matches "
          "the combinatorial network (%.2fs)" % elapsed)


def test_criterion_10_structural_properties(builders):
    for name, builder in builders.items():
        net = builder.to_network()
        assert is_flow_acyclic(net), name
        assert net.inconsistent_vertices() == [], name
        for vertex in net.vertices:
            assert vertex.kind in ("initial", "interaction_creation"), name
    for text, theta in (("w^2 - z", 0.0), ("w^3 - 3*w + x", 0.3)):
        curve = SpectralCurve(text)
        net = build_wkb_network(curve, theta, 12.0, 8.0)
        for wall in net.traced:
            masses = [abs(Z) for Z in wall.charges]
            assert all(a < b for a, b in zip(masses, masses[1:]))
        for joint in net.joints_info:
            total = 0
            for wid in joint.parents:
                wall = net.traced[wid]
                seg, frac = joint.parent_cuts[wid]
                total += wall.charge_at(seg, frac)
            assert abs(total - joint.charge) <= 1e-6 * (1 + abs(joint.charge))
    print("\nPASS criterion 10: combinatorial networks are flow-acyclic and "
          "creative; traced masses are strictly monotone; joint charges add "
          "within 1e-6 relative")
