"""Small graph helpers: SCCs in dependency order and bottom SCCs."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence


def strongly_connected_components(
    nodes: Sequence[Hashable], succs: Callable[[Hashable], Iterable[Hashable]]
) -> list[list[Hashable]]:
    """Tarjan's algorithm, iterative.

    Returns SCCs so that every edge goes from a later component to an earlier
    one; i.e. successors appear before the components that depend on them.
    """
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    sccs: list[list[Hashable]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succs(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succs(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def bottom_sccs(
    nodes: Sequence[Hashable], succs: Callable[[Hashable], Iterable[Hashable]]
) -> list[list[Hashable]]:
    """SCCs of the subgraph induced by `nodes` that no edge leaves.

    Successors outside `nodes` count as leaving, so a component touching an
    external sink is never bottom.
    """
    node_set = set(nodes)
    inner = lambda v: (w for w in succs(v) if w in node_set)
    result = []
    for comp in strongly_connected_components(list(nodes), inner):
        members = set(comp)
        if all(w in members for v in comp for w in succs(v)):
            result.append(comp)
    return result
