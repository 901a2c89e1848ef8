"""Seeded random instance builders shared by the test modules.

Every builder takes an explicit random.Random so suites stay reproducible;
sizes default to the ranges the brute-force oracles can handle.
"""
import random

from hypothesis import strategies as st

from tctp.core import Instance, StaticEdge, StaticGraph, TemporalGraph, TimeEdge

# the numbers a file may write: none, one, 10^4 copies (two such arcs make a row
# past TABLE_STEPS) and 10^7 (a table whose cells alone pass it), the 32- and 64-bit
# edges and past them
MAGNITUDES = (0, 1, 10**4, 10**7, 2**31, 2**63 - 1, 2**63, 10**20)


def magnitudes(low: int = 0):
    """A k, copy count, weight, tau, d or deadline of any magnitude, at least
    low: one of MAGNITUDES, or a small value (2 to 5)."""
    return st.sampled_from([m for m in MAGNITUDES if m >= low]) | st.integers(max(low, 2), 5)


def rand_dag(rng: random.Random, max_n: int = 8, max_arcs: int = 14,
             max_w: int = 9, max_copies: int = 3, max_k: int = 3,
             min_n: int = 2, min_arcs: int = 1) -> Instance:
    """Random weighted DAG instance; arcs always go index-upward."""
    n = rng.randint(min_n, max_n)
    names = [f"n{i}" for i in range(n)]
    arcs = []
    for _ in range(rng.randint(min_arcs, max_arcs)):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        arcs.append(StaticEdge(names[i], names[j], rng.randint(1, max_w),
                               copies=rng.randint(1, max_copies)))
    g = StaticGraph.build(names, arcs, directed=True)
    return Instance(g, names[0], names[-1], rng.randint(0, max_k))


def rand_temporal(rng: random.Random, max_n: int = 6, max_keys: int = 12,
                  max_tau: int = 5, max_k: int = 2, k=None, max_d: int = 2,
                  min_n: int = 2, min_keys: int = 1) -> Instance:
    n = rng.randint(min_n, max_n)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(min_keys, max_keys)):
        u, v = rng.sample(names, 2)
        edges.append(TimeEdge(u, v, rng.randint(0, max_tau), rng.randint(1, max_d),
                              copies=rng.randint(1, 3)))
    g = TemporalGraph.build(names, edges)
    budget = rng.randint(0, max_k) if k is None else k
    return Instance(g, names[0], names[-1], budget)


def witness_chains(rng: random.Random, n: int, bypasses: int) -> Instance:
    """Single-copy paths into t with a few random bypasses, at k = 1.

    Vertex i leaves at 3i along a single-copy edge to a vertex at most three
    places on, arriving by that vertex's own departure, so the paths form a
    deep in-tree toward t, and each path edge is its tail's sole witness
    unless a bypass offers a later departure. Half the vertices fork to two
    such vertices at once, so their dominator is a meet of two paths.
    Random draws give shallow dominator subtrees of the witness DAG; these
    give deep ones.
    """
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n - 1):
        ahead = range(i + 1, min(n - 1, i + 3) + 1)
        for j in rng.sample(ahead, 2 if len(ahead) > 1 and rng.random() < 0.5 else 1):
            edges.append(TimeEdge(names[i], names[j], 3 * i, rng.randint(1, 3)))
    for _ in range(bypasses):
        u, v = rng.sample(names, 2)
        edges.append(TimeEdge(u, v, rng.randint(0, 3 * n), rng.randint(1, 3),
                              copies=rng.randint(1, 2)))
    return Instance(TemporalGraph.build(names, edges), names[0], names[-1], 1)


def rand_static(rng: random.Random, max_n: int = 6, max_w: int = 5,
                max_copies: int = 3, max_k: int = 2,
                directed: bool = False) -> Instance:
    n = rng.randint(2, max_n)
    names = [f"u{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(1, 2 * n)):
        u, v = rng.sample(names, 2)
        if directed and u > v:
            u, v = v, u
        edges.append(StaticEdge(u, v, rng.randint(0, max_w),
                                copies=rng.randint(1, max_copies)))
    g = StaticGraph.build(names, edges, directed=directed)
    return Instance(g, names[0], names[-1], rng.randint(0, max_k))


def layered_dag(layers: int, width: int, k: int, seed: int = 7) -> Instance:
    """Dense layer-to-layer DAG used for runtime scaling measurements."""
    rng = random.Random(seed)
    names = [[f"L{a}_{b}" for b in range(width)] for a in range(layers)]
    arcs = []
    for a in range(layers - 1):
        for u in names[a]:
            for v in names[a + 1]:
                arcs.append(StaticEdge(u, v, rng.randint(1, 9),
                                       copies=rng.randint(1, 2)))
    flat = [x for layer in names for x in layer]
    g = StaticGraph.build(flat, arcs, directed=True)
    return Instance(g, names[0][0], names[-1][0], k)


def enumerate_walks(g: TemporalGraph, start: str, t1: int = 0):
    """All temporal walks from start departing no earlier than t1.

    Yields (vertices tuple, steps tuple of (edge, depart)); steps chain by
    tau_{i} + d_{i} <= tau_{i+1}, so the enumeration is finite (clocks rise).
    """
    def rec(here, clock, verts, steps):
        yield tuple(verts), tuple(steps)
        for e in g.incident(here):
            if e.tau >= clock:
                verts.append(e.other(here))
                steps.append((e, e.tau))
                yield from rec(verts[-1], e.arrival, verts, steps)
                verts.pop()
                steps.pop()

    yield from rec(start, t1, [start], [])
