"""Planar level-trees.

A level-tree is a finite planar rooted tree; vertices are graded by their
edge-distance from the root.  Trees of height <= n are the cell shapes used
throughout the rest of the library.  This module provides the data
structure, a bracket-string encoding, enumeration of all trees or only
the pruned ones, and the star construction producing globular n-graphs.

Trees are hash-consed (hashcons.HashConsed): there is one LevelTree
object per shape, kept in the table _SHAPES, so tree equality is
identity and a tree hashes by id.
Enumeration generates the trees already in lexicographic order of their
bracket strings and streams them: no sort and no memo, each listing
builds its candidate children per height afresh.  iter_forests streams
the roots as child tuples, so a listing read once interns only those
children.
"""

from __future__ import annotations

from typing import Iterator

from .hashcons import HashConsed


class TreeParseError(ValueError):
    """Malformed bracket string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# children tuple -> the one LevelTree with those children
_SHAPES: dict[tuple, "LevelTree"] = {}


class LevelTree(HashConsed):
    """Planar rooted tree, hash-consed: LevelTree(children) returns the one
    object with that tuple of (themselves unique) children.  _SHAPES is
    keyed by the children alone, which saves intern's key tuple per shape,
    and height and edges are set once per shape."""

    __slots__ = ("children", "height", "edges", "_bracket")
    _fields = ("children",)

    def __new__(cls, children: tuple["LevelTree", ...] = ()) -> "LevelTree":
        self = _SHAPES.get(children)
        if self is None:  # a new shape; a plain loop is the cheapest here
            height = edges = 0
            for c in children:
                edges += 1 + c.edges
                if c.height >= height:
                    height = c.height + 1
            self = object.__new__(cls)
            object.__setattr__(self, "children", children)
            object.__setattr__(self, "height", height)
            object.__setattr__(self, "edges", edges)
            _SHAPES[children] = self
        return self

    def render(self) -> str:
        """The bracket encoding, joined from the children's on first use and
        kept."""
        try:
            return self._bracket
        except AttributeError:
            text = render_forest(self.children)
            object.__setattr__(self, "_bracket", text)
            return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LevelTree({self.render()!r})"


def render_forest(children: tuple[LevelTree, ...]) -> str:
    """The bracket encoding of the tree with these children, without
    building that tree."""
    return "[" + ",".join([c.render() for c in children]) + "]"


LEAF = LevelTree()


def parse_tree(text: str) -> LevelTree:
    """Parse the bracket encoding, e.g. "[[],[[]]]".  Whitespace is ignored."""
    stripped = [(i, ch) for i, ch in enumerate(text) if not ch.isspace()]
    pos = 0

    def parse_one() -> LevelTree:
        nonlocal pos
        if pos >= len(stripped) or stripped[pos][1] != "[":
            where = stripped[pos][0] if pos < len(stripped) else len(text)
            raise TreeParseError("expected '['", where)
        pos += 1
        children = []
        while True:
            if pos >= len(stripped):
                raise TreeParseError("unclosed '['", len(text))
            ch = stripped[pos][1]
            if ch == "]":
                pos += 1
                return LevelTree(tuple(children))
            if children:
                if ch != ",":
                    raise TreeParseError("expected ',' or ']'", stripped[pos][0])
                pos += 1
            children.append(parse_one())

    tree = parse_one()
    if pos != len(stripped):
        raise TreeParseError("trailing input", stripped[pos][0])
    return tree


def linear_tree(n: int) -> LevelTree:
    """The linear tree with one vertex at each height 0..n."""
    if n < 0:
        raise ValueError(f"linear tree height {n} is negative")
    t = LEAF
    for _ in range(n):
        t = LevelTree((t,))
    return t


def corolla(m: int) -> LevelTree:
    """Height <= 1 tree with m leaves attached to the root."""
    if m < 0:
        raise ValueError(f"corolla leaf count {m} is negative")
    return LevelTree((LEAF,) * m)


def vertices_at_height(tree: LevelTree, h: int) -> list[tuple[int, ...]]:
    """Root-paths (1-based child indices) of the vertices at exact height h,
    in left-to-right planar order."""
    if h == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    for i, child in enumerate(tree.children, start=1):
        out.extend((i,) + p for p in vertices_at_height(child, h - 1))
    return out


def count_at_height(tree: LevelTree, h: int) -> int:
    if h == 0:
        return 1
    return sum(count_at_height(c, h - 1) for c in tree.children)


def _forests(kids: list, high: int, slack: int, least: int) -> Iterator[tuple]:
    """The forests over kids, (tree, edges) pairs in bracket order, whose
    edges plus one per branch lie in [high - slack, high], in bracket
    order.  A forest sorts after its extensions, because ',' < ']', so the
    stack walk yields it after all of them.  A rest with 0 < rest <= least
    fits no branch; it is skipped unless the forest may end there."""
    # weight left -> the kids that fit in it
    fits = [[kid for kid in kids if kid[1] < w and not slack < w - 1 - kid[1] <= least]
            for w in range(high + 1)]
    branch: list[LevelTree] = []
    stack = [(iter(fits[high]), high)]
    while stack:
        options, left = stack[-1]
        for tree, e in options:
            branch.append(tree)
            stack.append((iter(fits[left - 1 - e]), left - 1 - e))
            break
        else:
            stack.pop()
            if left <= slack:
                yield tuple(branch)
            if branch:
                branch.pop()


def _ordered(h: int, most: int, pruned: bool) -> list[tuple[LevelTree, int]]:
    """(tree, edges) for the trees of height <= h, or if pruned those with
    every leaf at height h, with at most `most` edges, in bracket order."""
    if most < 0:
        return []
    if h == 0:
        return [(LEAF, 0)]
    kids = _ordered(h - 1, most - 1, pruned)
    # a pruned tree of height h >= 1 has a branch, so weight >= 1
    forests = _forests(kids, most, most - pruned, h - 1 if pruned else 0)
    return [(tree, tree.edges) for tree in map(LevelTree, forests)]


def iter_forests(n: int, e: int, pruned: bool = False) -> Iterator[tuple[LevelTree, ...]]:
    """The child tuples of the trees with e edges and height <= n, or if
    pruned only those with every leaf at height n, one at a time in
    lexicographic order of the bracket encoding.  The roots are not
    built, so of a listing read once only the children are interned."""
    if n < 0:
        raise ValueError("tree height bound n must be >= 0")
    if e < 0:
        raise ValueError("edge count e must be >= 0")
    if pruned and n < 1:
        raise ValueError("pruned enumeration needs n >= 1")
    if e == 0 or n == 0 or pruned and e < n:  # a pruned n-tree has >= n edges
        return iter([()] if e == 0 and not pruned else [])
    kids = _ordered(n - 1, e - 1, pruned)  # a pruned branch has >= n - 1 edges
    return _forests(kids, e, 0, n - 1 if pruned else 0)


def iter_trees(n: int, e: int, pruned: bool = False) -> Iterator[LevelTree]:
    """The trees of iter_forests, in the same order."""
    return map(LevelTree, iter_forests(n, e, pruned))


def enumerate_trees(n: int, e: int) -> list[LevelTree]:
    """All level-trees with exactly e edges and height <= n, in
    lexicographic order of the bracket encoding."""
    return list(iter_trees(n, e))


def enumerate_pruned(n: int, e: int) -> list[LevelTree]:
    """All pruned n-trees (every leaf at height exactly n) with e edges, in
    the same order."""
    return list(iter_trees(n, e, pruned=True))


# --- star construction -------------------------------------------------

CellId = tuple[int, ...]


class NGraph:
    """Graded sets of cells with source/target maps satisfying the globular
    identities.  Cell ids are root-paths ending in a sector index."""

    __slots__ = ("cells", "source", "target")

    def __init__(self, cells: tuple[tuple[CellId, ...], ...],
                 source: dict[CellId, CellId], target: dict[CellId, CellId]):
        self.cells, self.source, self.target = cells, source, target

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1


def star(tree: LevelTree, n: int) -> NGraph:
    """Batanin's star construction: the n-graph T_* generated by the tree.

    A vertex at height k with m children contributes its m+1 sectors as
    k-cells; the sectors of a child vertex are bounded by the two sectors
    of the parent adjacent to the connecting edge.
    """
    if tree.height > n:
        raise ValueError(f"tree height {tree.height} exceeds bound {n}")
    cells: list[list[CellId]] = [[] for _ in range(n + 1)]
    source: dict[CellId, CellId] = {}
    target: dict[CellId, CellId] = {}

    def build(t: LevelTree, prefix: CellId, dim: int,
              bounds: tuple[CellId, CellId] | None) -> None:
        sectors = [prefix + (j,) for j in range(len(t.children) + 1)]
        cells[dim].extend(sectors)
        if bounds is not None:
            for s in sectors:
                source[s] = bounds[0]
                target[s] = bounds[1]
        for i, child in enumerate(t.children, start=1):
            build(child, prefix + (i,), dim + 1,
                  (prefix + (i - 1,), prefix + (i,)))

    build(tree, (), 0, None)
    return NGraph(tuple(tuple(layer) for layer in cells), source, target)
