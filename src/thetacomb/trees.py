"""Planar level-trees.

A level-tree is a finite planar rooted tree; vertices are graded by their
edge-distance from the root.  Trees of height <= n are the cell shapes used
throughout the rest of the library.  This module provides the data
structure, its bracket-string rendering, and enumeration of all trees
or only the pruned ones (every leaf at height n).

Trees are hash-consed (hashcons.HashConsed): there is one LevelTree
object per shape, kept in intern's table like every other value, so
tree equality is identity and a tree hashes by id.
Enumeration generates the trees already in lexicographic order of their
bracket strings and streams them: no sort and no memo, each listing
builds its candidate children per height afresh.  It is a fold: a tree is
node(its children's values), LevelTree by default, and a listing folded
with bracket, a leaf count or labelled bar words interns no tree.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

from .hashcons import HashConsed, intern


class LevelTree(HashConsed):
    """Planar rooted tree, hash-consed: LevelTree(children) returns the one
    object with that tuple of (themselves unique) children; its height and
    edges are set once per shape."""

    __slots__ = ("children", "height", "edges")
    _fields = ("children",)

    def __new__(cls, children: tuple["LevelTree", ...] = ()) -> "LevelTree":
        return intern(cls, children)

    def _build(self):
        height = edges = 0
        for c in self.children:  # a plain loop is the cheapest here
            edges += 1 + c.edges
            if c.height >= height:
                height = c.height + 1
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "edges", edges)

    def render(self) -> str:
        """The bracket encoding, joined from the children's."""
        return bracket([c.render() for c in self.children])

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LevelTree({self.render()!r})"


def bracket(kids) -> str:
    """The bracket encoding of a tree from its children's encodings."""
    return "[" + ",".join(kids) + "]"


LEAF = LevelTree()


def count_at_height(tree: LevelTree, h: int) -> int:
    if h == 0:
        return 1
    return sum(count_at_height(c, h - 1) for c in tree.children)


def _forests(kids: list, high: int, slack: int, least: int) -> Iterator[tuple]:
    """The forests over kids, (value, edges) pairs in bracket order, whose
    weight, edges plus one per branch, lies in [high - slack, high], as
    (values, weight) pairs in bracket order.  A forest sorts after its
    extensions, because ',' < ']', so the stack walk yields it after all of
    them.  A rest with 0 < rest <= least fits no branch; it is skipped
    unless the forest may end there.  Each stack entry carries its forest
    as an immutable tuple, the parent's plus one value, which is yielded
    as it is."""
    # weight left -> the kids that fit in it
    fits = [[kid for kid in kids if kid[1] < w and not slack < w - 1 - kid[1] <= least]
            for w in range(high + 1)]
    stack = [(iter(fits[high]), high, ())]
    while stack:
        options, left, forest = stack[-1]
        for value, e in options:
            stack.append((iter(fits[left - 1 - e]), left - 1 - e, forest + (value,)))
            break
        else:
            stack.pop()
            if left <= slack:
                yield forest, high - left


def _ordered(h: int, most: int, pruned: bool, node) -> list[tuple]:
    """(node value, edges) for the trees of height <= h, or if pruned those
    with every leaf at height h, with at most `most` edges, in bracket order."""
    if most < 0:
        return []
    if h == 0:
        return [(node(()), 0)]
    kids = _ordered(h - 1, most - 1, pruned, node)
    # a pruned tree of height h >= 1 has a branch, so weight >= 1
    return [(node(forest), e)
            for forest, e in _forests(kids, most, most - pruned, h - 1 if pruned else 0)]


def iter_forests(n: int, e: int, pruned: bool = False, node=LevelTree) -> Iterator[tuple]:
    """The trees with e edges and height <= n, or if pruned only those with
    every leaf at height n, one at a time in lexicographic order of the
    bracket encoding, each as the tuple of its children's values under the
    fold node: LevelTree, bracket or a count.  The roots are not built."""
    if n < 0:
        raise ValueError("tree height bound n must be >= 0")
    if e < 0:
        raise ValueError("edge count e must be >= 0")
    if pruned and n < 1:
        raise ValueError("pruned enumeration needs n >= 1")
    if e == 0 or n == 0 or pruned and e < n:  # a pruned n-tree has >= n edges
        return iter([()] if e == 0 and not pruned else [])
    kids = _ordered(n - 1, e - 1, pruned, node)  # a pruned branch has >= n - 1 edges
    return map(itemgetter(0), _forests(kids, e, 0, n - 1 if pruned else 0))


def enumerate_trees(n: int, e: int) -> list[LevelTree]:
    """All level-trees with exactly e edges and height <= n, in
    lexicographic order of the bracket encoding."""
    return list(map(LevelTree, iter_forests(n, e)))
