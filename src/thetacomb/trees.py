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
builds its branches per height afresh, and only those of the edge counts
that some listed tree can hold.  It is a fold: a tree is node(its
children's values), LevelTree by default, and a listing folded with
bracket, a leaf count or labelled bar words interns no tree.
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


def _forests(h: int, ends, pruned: bool, node) -> Iterator[tuple]:
    """The forests over the trees of height <= h - 1 (pruned: every leaf at
    h - 1) folded by node, whose weight, edges plus one per branch, lies in
    ends, as (values, weight) pairs in bracket order.  A forest sorts after
    its extensions, because ',' < ']', so the stack walk yields it after
    them.  A rest r with 0 < r <= least fits no branch, so only branches
    that leave a rest of 0 or more than least are built and pushed: every
    push leads to a yielded forest.  The walk pushes onto one shared list of
    values and copies it only to yield; a forest of the top weight extends
    to none, so it is yielded where its last branch is found."""
    least = h - 1 if pruned else 0  # a pruned branch has >= h - 1 edges
    sizes = {k for w in ends for k in range(least, w) if not 0 < w - 1 - k <= least}
    kids = _ordered(h - 1, sizes, pruned, node)
    top = max(ends)
    # edges -> the weights so far after which a branch with them fits
    at = {e: [w for w in range(top - e) if w + 1 + e in ends or w + 1 + e < top - least]
          for e in {e for _, e in kids}}
    fits = [[] for _ in range(top + 1)]  # weight so far -> its kids, in bracket order
    for kid in kids:
        for w in at[kid[1]]:
            fits[w].append(kid)
    branch = []
    push, pop = branch.append, branch.pop
    stack = [(iter(fits[0]), 0)]
    while stack:
        options, w = stack[-1]
        for value, e in options:
            e += w + 1
            if e == top:  # no branch extends it: yield it, not push it
                yield (*branch, value), e
                continue
            push(value)
            stack.append((iter(fits[e]), e))
            break
        else:
            stack.pop()
            if w in ends:
                yield tuple(branch), w
            if stack:  # the root entry holds no branch
                pop()


def _ordered(h: int, sizes: set, pruned: bool, node) -> list[tuple]:
    """(node value, edges) for the trees of height <= h, or if pruned those
    with every leaf at height h, whose edge count lies in sizes, in bracket
    order."""
    if h == 0 or not sizes:
        return [(node(()), 0)] if 0 in sizes else []
    return [(node(forest), e) for forest, e in _forests(h, sizes, pruned, node)]


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
    return map(itemgetter(0), _forests(n, (e,), pruned, node))


def enumerate_trees(n: int, e: int) -> list[LevelTree]:
    """All level-trees with exactly e edges and height <= n, in
    lexicographic order of the bracket encoding."""
    return list(map(LevelTree, iter_forests(n, e)))
