"""Proximity diagrams of Goursat words and the front-end derived vector.

The diagram for a word of length k has vertices 0..k (vertex 0 is the
unlabeled base point, vertex j carries the j-th symbol), the chain edges
(j, j+1), and, accumulated over the lifting recursion, long edges from
vertex 1 to each vertex of a changed critical block.  Each vertex carries
a multiplicity: m_k = 1 and, moving right to left, m_i is the sum of the
multiplicities of the vertices proximate to i (those joined to i from the
right).  The sequence (m_{k-1}, ..., m_1) is the multiplicity vector of
the corresponding curve germ.
"""

from __future__ import annotations

from collections import namedtuple

from .codeword import GoursatWord, critical_block, lift_chain
from .errors import RouteMismatch

Edge = tuple[int, int]


class ProximityDiagram(namedtuple("ProximityDiagram", "word edges mult")):
    """The diagram of a GoursatWord: its edges, a frozenset of pairs (i, j)
    with i < j, chain edges included, and the multiplicities m_0 .. m_k."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return self.word.k

    def label(self, v: int) -> str:
        """Symbol at vertex v; the base vertex 0 is unlabeled."""
        return "" if v == 0 else self.word.letter(v)


def _multiplicities(edges: frozenset[Edge], k: int) -> tuple[int, ...]:
    targets: list[list[int]] = [[] for _ in range(k + 1)]
    for i, j in edges:
        targets[i].append(j)
    m = [0] * (k + 1)
    m[k] = 1
    for i in range(k - 1, -1, -1):
        m[i] = sum(m[j] for j in targets[i])
    for i in range(k):
        if m[i] < m[i + 1]:
            raise RouteMismatch(
                f"multiplicity increased at vertex {i}: m_{i} = {m[i]} < m_{i + 1} = {m[i + 1]}"
            )
    if m[0] != m[1]:
        raise RouteMismatch(f"base vertex must copy m_1: m_0 = {m[0]}, m_1 = {m[1]}")
    return tuple(m)


def build_diagram(w: GoursatWord | str) -> ProximityDiagram:
    """Build the proximity diagram by recursion on the lifted word.

    The lift of length L sits at vertices k-L..k of the diagram of w: its
    base edge (0, 1) and its long edges (1, v), for v in the critical block
    starting at its position 3 (the labels that change under lifting),
    are edges of the diagram of w shifted by k - L.  So one pass over the
    lift chain collects every edge, and the multiplicities are computed
    once, on the final edges.
    """
    chain = lift_chain(w)
    word = chain[-1]
    edges = set()
    for lifted in chain:
        base = word.k - lifted.k
        edges.add((base, base + 1))
        edges.update((base + 1, base + v) for v in critical_block(lifted.symbols, 3))
    edges = frozenset(edges)
    return ProximityDiagram(word, edges, _multiplicities(edges, word.k))


def multiplicity_vector(d: ProximityDiagram) -> tuple[int, ...]:
    """The multiplicity vector (m_{k-1}, ..., m_1); empty for k = 1."""
    return tuple(d.mult[i] for i in range(d.k - 1, 0, -1))


def base_multiplicity(d: ProximityDiagram) -> int:
    """m_0 of the canonical realization; equals m_1 for Goursat words."""
    return d.mult[0]


def derived_frontend(w: GoursatWord | str) -> tuple[int, ...]:
    """The derived vector computed front-end: der(w) = der(lift(w)) + (m_1,).

    Vertex j+1 of the diagram of w is vertex 1 of the diagram of its j-th
    lift, so the recursion unrolls to der = (1, m_{k-1}, ..., m_1).
    """
    return (1,) + multiplicity_vector(build_diagram(w))


def to_dot(d: ProximityDiagram) -> str:
    """Graphviz rendering: vertices left to right, long edges dashed."""
    lines = ["graph proximity {", "  rankdir=LR;"]
    for v in range(d.k + 1):
        lines.append(f'  v{v} [label="{v}:{d.label(v)}:{d.mult[v]}"];')
    for (i, j) in sorted(d.edges):
        if j == i + 1:
            lines.append(f"  v{i} -- v{j};")
        else:
            lines.append(f"  v{i} -- v{j} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
