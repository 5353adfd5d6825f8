"""Independent brute-force oracles used to check the library's algorithms.

These deliberately share no code with the implementations they check: the
star oracle is a dynamic program over exact path lengths, the Schur oracle
is a Floyd-Warshall restricted to a given set of intermediate nodes, and the
component oracle is a graph search that never looks at edge weights.
"""

from fractions import Fraction

from tropasym import MAX_PLUS, MIN_PLUS, TropicalMatrix


def longest_path_table(A: TropicalMatrix) -> list[list[Fraction]]:
    """Best path weight over all paths of length 0..n (max-plus or min-plus)."""
    n = A.n
    pick = max if A.semiring == MAX_PLUS else min
    # W[i][j]: best walk of exactly L edges, built up one edge at a time
    best = [[None] * n for _ in range(n)]
    for i in range(n):
        best[i][i] = Fraction(0)  # length 0
    W = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for _ in range(n):
        Wn = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                cands = [
                    W[i][l] + A.entries[l][j] for l in range(n) if W[i][l] is not None
                ]
                if cands:
                    Wn[i][j] = pick(cands)
        W = Wn
        for i in range(n):
            for j in range(n):
                if W[i][j] is None:
                    continue
                if best[i][j] is None:
                    best[i][j] = W[i][j]
                else:
                    best[i][j] = pick(best[i][j], W[i][j])
    return best


def restricted_fw(A: TropicalMatrix, C) -> list[list[Fraction]]:
    """Min-plus shortest paths using only intermediate nodes from C."""
    assert A.semiring == MIN_PLUS
    n = A.n
    dist = [list(row) for row in A.entries]
    for w in sorted(C):
        for i in range(n):
            for j in range(n):
                cand = dist[i][w] + dist[w][j]
                if cand < dist[i][j]:
                    dist[i][j] = cand
    return dist


def strongly_connected_components(nodes, edges) -> list[tuple[int, ...]]:
    """Kosaraju's two depth-first passes; sorted tuples, by smallest node."""
    succ = {u: [] for u in nodes}
    pred = {u: [] for u in nodes}
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    finished, seen = [], set()
    for root in sorted(nodes):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            u, rest = stack[-1]
            for v in rest:
                if v not in seen:
                    seen.add(v)
                    stack.append((v, iter(succ[v])))
                    break
            else:
                stack.pop()
                finished.append(u)
    comps, placed = [], set()
    for root in reversed(finished):
        if root in placed:
            continue
        placed.add(root)
        comp, stack = [], [root]
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in pred[u]:
                if v not in placed:
                    placed.add(v)
                    stack.append(v)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)
