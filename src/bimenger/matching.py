"""Exact integral optima of the packing program (P) by perfect matchings.

In the split graph every half vertex v+ or v- meets its split edge at
one sign and all its other edges at the other, so its balance row says
that it meets as many chosen other edges as its split edge carries, 0
or 1.  An integral point of (P) is therefore a perfect matching of the
half vertices: the chosen edges that are not split edges, and the split
edges that are not chosen.  H_k makes x_f = k a matching condition too:
each edge at s or t (an s-edge or a t-edge) becomes a pendant vertex
joined to its half vertex, and p - k absorbers, each joined to every
pendant on its side, take the p - k pendants whose edges stay unchosen.
So the packing value is the largest k for which H_k has a perfect
matching.  This is Tutte's reduction of degree-constrained subgraphs to
perfect matchings (1954); Gabow (STOC 1983) reduces bidirected flow to
matching the same way.

Removing one link from an integral point lowers x_f by 1 (a path) or 2
(a turnaround), so when neither H_{k+1} nor H_{k+2} has a perfect
matching, no larger k has one.  On the fold of the X-path pipeline, a
side that holds s and both halves of each of its other vertices, the
half vertices that no pendant takes pair up, so x_f is even and the
step is 2.

H is built once; H_0 is matched by every split edge and each pendant
with its own absorber.  A step removes absorbers, which exposes their
pendants, and runs one single-root Edmonds search ("Paths, trees, and
flowers", 1965) from each exposed vertex, with blossom contraction.
When H_k has a perfect matching N and M leaves r exposed, the component
of M and N's symmetric difference at r is an augmenting path, so a
failed search proves that H_k has none.  Standard library only, and
integers only.
"""

from __future__ import annotations

from typing import Container, Optional

from .bigraph import BidirectedGraph, EdgeId


def _augment(adj: list, mate: list, live: list, root: int) -> bool:
    """Search from the exposed vertex ``root`` for an augmenting path of
    the matching ``mate`` (-1 for an exposed vertex) in the live part of
    the graph ``adj``; flip it and return True, or return False when
    there is none.  Blossoms are contracted onto their base (``base``)."""
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n
    outer = [False] * n
    outer[root] = True
    queue = [root]

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, b: int, child: int, blossom: list) -> None:
        while base[v] != b:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:  # the queue grows as it is read
        for w in adj[v]:
            if not live[w] or base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # w is outer too: contract the blossom the edge closes
                b = lca(v, w)
                blossom = [False] * n
                mark(v, b, w, blossom)
                mark(w, b, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = b
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    while w >= 0:
                        v = parent[w]
                        nxt = mate[v]
                        mate[v], mate[w] = w, v
                        w = nxt
                    return True
                outer[mate[w]] = True
                queue.append(mate[w])
    return False


def max_packing(
    g_prime: BidirectedGraph, f: EdgeId, split_edges: Container[EdgeId],
    side: Optional[frozenset] = None,
) -> tuple[dict, int]:
    """(x per edge id, x_f): an integral optimum of ``build_primal(g_prime,
    f, side)``, with x given on that program's edge columns.

    ``split_edges`` are the split edges of ``g_prime``, and ``side``, as
    in ``build_primal``, folds the program onto the vertices it holds.
    """
    fe = g_prime.edge(f)
    s, t = fe.u, fe.v
    edges = [e for e in g_prime.edges
             if e.eid != f and (side is None or side.issuperset(e.endpoints))]
    index = {v: i for i, v in enumerate(
        v for v in g_prime.vertices if v not in (s, t) and (side is None or v in side))}
    adj = [[] for _ in index]
    mate = [-1] * len(index)
    pair_edge = {}  # an edge id per joined pair of half vertices
    pendant_of = {}  # an s-edge or t-edge: (its pendant, its half vertex)
    pendants = {s: [], t: []}
    for e in edges:
        if s in e.endpoints or t in e.endpoints:
            end = s if s in e.endpoints else t
            pendants[end].append((e.eid, index[e.other(end)]))
            continue
        i, j = index[e.u], index[e.v]
        if (i, j) not in pair_edge:
            pair_edge[i, j] = pair_edge[j, i] = e.eid
            adj[i].append(j)
            adj[j].append(i)
            if e.eid in split_edges:
                mate[i], mate[j] = j, i

    absorbers = []  # per side; H_k has all but the first k
    for end in (s, t) if side is None else (s,):
        ps = range(len(adj), len(adj) + len(pendants[end]))
        for p, (eid, h) in zip(ps, pendants[end]):
            pendant_of[eid] = (p, h)
            adj[h].append(p)
            adj.append([h])
        side_absorbers = range(len(adj), len(adj) + len(ps))
        for p in ps:
            adj[p].extend(side_absorbers)
        adj.extend(list(ps) for _ in ps)
        mate.extend(side_absorbers)  # pendant i of the side to absorber i
        mate.extend(ps)
        absorbers.append(side_absorbers)
    live = [True] * len(adj)

    k = 0
    while True:
        trial = None
        for step in (1, 2) if side is None else (2,):
            if k + step <= min(map(len, absorbers)):
                removed = [a for each in absorbers for a in each[k:k + step]]
                trial = _step(adj, mate, live, removed)
                if trial is not None:
                    break
        if trial is None:
            break
        mate, k = trial, k + step

    x = {}
    for e in edges:
        if e.eid in pendant_of:
            p, h = pendant_of[e.eid]
            x[e.eid] = int(mate[p] == h)
        else:
            i, j = index[e.u], index[e.v]
            matched = mate[i] == j and pair_edge[i, j] == e.eid
            x[e.eid] = int(matched != (e.eid in split_edges))
    return x, k


def _step(adj: list, mate: list, live: list, removed: list) -> Optional[list]:
    """A perfect matching of the live part of ``adj`` less the absorbers
    ``removed``, from the perfect matching ``mate`` with them, or None
    when there is none; the absorbers stay removed only on success."""
    trial = mate[:]
    exposed = [trial[a] for a in removed]
    for a in removed:
        live[a] = False
        trial[trial[a]] = -1
        trial[a] = -1
    if all(trial[r] >= 0 or _augment(adj, trial, live, r) for r in exposed):
        return trial
    for a in removed:
        live[a] = True
    return None
