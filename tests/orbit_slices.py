"""Orbit-graph helpers the tests use to check orbit charts and pruning:
the valence of a point and a breadth-first slice of its orbit graph."""

from dataclasses import dataclass

from thinsections.iis import OrbitChart


def point_valence(s, x):
    chart = OrbitChart(s, x)
    return len(chart.neighbors(chart.origin))


@dataclass
class OrbitGraphSlice:
    root: object
    depth: int
    vertices: set
    edges: set
    frontier: set


def orbit_bfs(s, x, depth):
    """Breadth-first slice of the orbit graph around x, to edge depth
    `depth`.  Frontier vertices are at distance exactly `depth` and are
    not expanded.  Each edge (a, b, i) has a < b."""
    chart = OrbitChart(s, x)
    vertices = {chart.origin}
    edges = set()
    layer = [chart.origin]
    for _ in range(depth):
        nxt = []
        for v in layer:
            for w, i, rises in chart.neighbors(v):
                edges.add((v, w, i) if rises else (w, v, i))
                if w not in vertices:
                    vertices.add(w)
                    nxt.append(w)
        layer = nxt
    value = {c: chart.value(c) for c in vertices}
    return OrbitGraphSlice(
        root=x,
        depth=depth,
        vertices=set(value.values()),
        edges={(value[a], value[b], i) for a, b, i in edges},
        frontier={value[c] for c in layer},
    )
