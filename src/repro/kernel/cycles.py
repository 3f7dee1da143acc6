"""Strongly connected components of an int-code digraph: trim, then SCC.

Two questions about a searched set's edge list come down to its
components.  A failing convergence check needs a cycle witness, and a
witness needs only the states that lie on a cycle — typically a few
dozen out of the hundreds of thousands searched (:func:`cycle_codes`).
Clause 3 of convergence refinement asks whether an edge ``(s, t)``
lies on a cycle, which holds iff ``s`` and ``t`` share a component
(:func:`component_labels`).  Both are answered in two steps:

1. **Trim.**  Repeatedly drop every edge whose source has no in-edge or
   whose target has no out-edge among the remaining edges.  A node on
   a cycle keeps both, so the trim never removes one; what survives is
   the cycles plus the paths running between them.
2. **SCC.**  An iterative Tarjan labels the survivors' components.
   :func:`cycle_codes` keeps the nodes of components with more than
   one member or with a self-loop.

Edges come as parallel ``sources``/``targets`` int arrays, which trim
as whole-array passes.  The SCC step is pure Python; it runs on the
trimmed remainder only.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

__all__ = ["component_labels", "cycle_codes"]


def component_labels(sources: Sequence[int], targets: Sequence[int]) -> Dict[int, int]:
    """Component labels of the digraph ``sources[i] -> targets[i]``.

    Maps every node that survives the trim to its strongly connected
    component's label: two mapped nodes share a label iff each reaches
    the other.  A node left out lies on no cycle, so its component is
    itself alone.
    """
    return _labels(*_trimmed(sources, targets))


def cycle_codes(sources: Sequence[int], targets: Sequence[int]) -> List[int]:
    """The nodes of the digraph ``sources[i] -> targets[i]`` on a cycle.

    A self-loop is a cycle.  Returns the nodes ascending.
    """
    sources, targets = _trimmed(sources, targets)
    labels = _labels(sources, targets)
    members = Counter(labels.values())
    looped = {source for source, target in zip(sources, targets) if source == target}
    return sorted(
        node for node, label in labels.items() if members[label] > 1 or node in looped
    )


def _trimmed(sources, targets) -> Tuple[List[int], List[int]]:
    sources = np.asarray(sources)
    targets = np.asarray(targets)
    if not sources.size:
        return [], []
    # Node-indexed flags, set and cleared per pass at the edge
    # endpoints only: a pass costs the remaining edges, not the code
    # space, and untouched pages of the flags are never resident.
    size = int(max(sources.max(), targets.max())) + 1
    has_in = np.zeros(size, dtype=bool)
    has_out = np.zeros(size, dtype=bool)
    while True:
        has_out[sources] = True
        has_in[targets] = True
        keep = has_in[sources] & has_out[targets]
        has_out[sources] = False
        has_in[targets] = False
        if keep.all():
            return sources.tolist(), targets.tolist()
        sources, targets = sources[keep], targets[keep]


def _labels(sources: List[int], targets: List[int]) -> Dict[int, int]:
    """Iterative Tarjan: each node's component, labelled by its root."""
    adjacency: Dict[int, List[int]] = {}
    for source, target in zip(sources, targets):
        adjacency.setdefault(source, []).append(target)
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    stack: List[int] = []
    on_stack: Set[int] = set()
    labels: Dict[int, int] = {}
    for root in adjacency:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            node, pending = work[-1]
            for successor in pending:
                if successor not in index:
                    index[successor] = lowlink[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(adjacency.get(successor, []))))
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        labels[member] = node
                        if member == node:
                            break
    return labels
