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

from .codeword import GoursatWord, as_goursat

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
    """m_k = 1 and, right to left, m_i = the sum of m_j over the edges (i, j).

    build_diagram gives every vertex i < k the chain edge (i, i+1), so
    m_i >= m_{i+1}, and vertex 0 no other edge, so m_0 = m_1: neither can
    fail, and neither is checked.  Only prox prints vertex 0's m_0; the
    invariants read m_1 .. m_{k-1} (multiplicity_vector)."""
    m = [0] * (k + 1)
    m[k] = 1
    # Right to left: every edge (j, l) with j > i is added before any (i, j).
    for i, j in sorted(edges, reverse=True):
        m[i] += m[j]
    return tuple(m)


def build_diagram(w: GoursatWord | str) -> ProximityDiagram:
    """Build the proximity diagram in one scan of the word.

    The lifting recursion: the lift of length L sits at vertices k-L..k of
    the diagram of w, and its base edge (0, 1) and its long edges (1, v),
    for v in the critical block starting at its position 3 (the labels that
    change under lifting), are edges of the diagram of w shifted by k - L.
    Walking the lift chain w = w_0, w_1, ... would collect every edge, but
    no lifted word needs building, by this lemma:

    - w_base holds w's letters at positions base+1..k, except those of
      the blocks earlier lifts regularized: the lift of w_base regularizes
      only the critical block at its level 3, at position base+3 of w;
    - a regularized block is all R's;
    - so the block met at step base is w's own block V T^t starting at
      position base+3, unless an earlier block covered that position.

    A block's only V is its first letter, so no V is covered: the blocks
    met are exactly w's blocks, one per V.  The V at position q gives the
    edges (q-2, v) for v over its block, and each T belongs to the block of
    the nearest V before it.  The chain edges (i, i+1) come from the base
    edges.  The word is validated once, and the multiplicities are computed
    once, on the final edges.  Vertex i has its chain edge and long edges
    start at vertex 1 or later, so the multiplicities never increase and
    m_0 = m_1 (see _multiplicities).  Vertex 0's multiplicity is read only
    by prox, which prints it.
    """
    word = as_goursat(w)
    edges = {(i, i + 1) for i in range(word.k)}
    opener = 0
    for v, s in enumerate(word.symbols, 1):
        if s == "V":
            opener = v - 2
        if s != "R":
            edges.add((opener, v))
    edges = frozenset(edges)
    return ProximityDiagram(word, edges, _multiplicities(edges, word.k))


def multiplicity_vector(d: ProximityDiagram) -> tuple[int, ...]:
    """The multiplicity vector (m_{k-1}, ..., m_1); empty for k = 1."""
    return tuple(d.mult[i] for i in range(d.k - 1, 0, -1))


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
