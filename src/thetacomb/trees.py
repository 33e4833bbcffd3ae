"""Planar level-trees.

A level-tree is a finite planar rooted tree; vertices are graded by their
edge-distance from the root.  Trees of height <= n are the cell shapes used
throughout the rest of the library.  This module provides the data
structure, a bracket-string encoding, enumeration (all trees / pruned
trees), the star construction producing globular n-graphs, and root
shuffles of height-1 trees.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property


class TreeParseError(ValueError):
    """Malformed bracket string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ShuffleUnsupportedError(ValueError):
    """Shuffles are only defined here for trees of height <= 1."""


@dataclass(frozen=True)
class LevelTree:
    """Planar rooted tree; equality is equality of ordered child lists."""

    children: tuple["LevelTree", ...] = ()

    @cached_property
    def height(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.height for c in self.children)

    @cached_property
    def edges(self) -> int:
        return sum(1 + c.edges for c in self.children)

    def render(self) -> str:
        return "[" + ",".join(c.render() for c in self.children) + "]"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LevelTree({self.render()!r})"


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
    t = LEAF
    for _ in range(n):
        t = LevelTree((t,))
    return t


def corolla(m: int) -> LevelTree:
    """Height <= 1 tree with m leaves attached to the root."""
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


def is_pruned(tree: LevelTree, n: int) -> bool:
    """True iff every leaf of the tree sits at height exactly n."""
    if not tree.children:
        return n == 0
    return all(is_pruned(c, n - 1) for c in tree.children)


def _forests(n: int, e: int, m: int, memo) -> list[tuple[LevelTree, ...]]:
    """Ordered m-tuples of height-<=n trees totaling e edges."""
    if m == 0:
        return [()] if e == 0 else []
    out = []
    for e0 in range(e + 1):
        for head in _trees(n, e0, memo):
            for tail in _forests(n, e - e0, m - 1, memo):
                out.append((head,) + tail)
    return out


def _trees(n: int, e: int, memo) -> list[LevelTree]:
    key = (n, e)
    if key in memo:
        return memo[key]
    if e == 0:
        result = [LEAF]
    elif n == 0:
        result = []
    else:
        result = []
        for m in range(1, e + 1):
            for forest in _forests(n - 1, e - m, m, memo):
                result.append(LevelTree(forest))
    memo[key] = result
    return result


_TREE_MEMO: dict[tuple[int, int], list[LevelTree]] = {}


def enumerate_trees(n: int, e: int) -> list[LevelTree]:
    """All level-trees with exactly e edges and height <= n, in
    lexicographic order of the bracket encoding."""
    if n < 0:
        raise ValueError("tree height bound n must be >= 0")
    return sorted(_trees(n, e, _TREE_MEMO), key=LevelTree.render)


def _pruned(n: int, e: int, memo) -> list[LevelTree]:
    key = (n, e)
    if key in memo:
        return memo[key]
    if n == 0:
        result = [LEAF] if e == 0 else []
    else:
        result = []
        # Each of the m root branches is a pruned (n-1)-tree, so it has at
        # least n-1 edges, and with its root edge it uses at least n: hence
        # m <= e // n.  Split the e-m branch edges as n-1 per branch plus a
        # composition of the spare e - m*n edges into m non-negative parts.
        for m in range(1, e // n + 1):
            spare = e - m * n
            for cuts in itertools.combinations(range(spare + m - 1), m - 1):
                bounds = (-1, *cuts, spare + m - 1)
                split = [n - 1 + bounds[i + 1] - bounds[i] - 1 for i in range(m)]
                children = [_pruned(n - 1, ei, memo) for ei in split]
                for forest in itertools.product(*children):
                    result.append(LevelTree(forest))
    memo[key] = result
    return result


_PRUNED_MEMO: dict[tuple[int, int], list[LevelTree]] = {}


def enumerate_pruned(n: int, e: int) -> list[LevelTree]:
    """All pruned n-trees (every leaf at height exactly n) with e edges."""
    if n < 1:
        raise ValueError("pruned enumeration needs n >= 1")
    return sorted(_pruned(n, e, _PRUNED_MEMO), key=LevelTree.render)


# --- star construction -------------------------------------------------

CellId = tuple[int, ...]


@dataclass
class NGraph:
    """Graded sets of cells with source/target maps satisfying the globular
    identities.  Cell ids are root-paths ending in a sector index."""

    cells: tuple[tuple[CellId, ...], ...]
    source: dict[CellId, CellId]
    target: dict[CellId, CellId]

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1

    def to_json(self) -> str:
        def key(c: CellId) -> str:
            return "/".join(str(i) for i in c)

        return json.dumps(
            {
                "cells": [[key(c) for c in layer] for layer in self.cells],
                "source": [
                    {key(c): key(self.source[c]) for c in layer}
                    for layer in self.cells[1:]
                ],
                "target": [
                    {key(c): key(self.target[c]) for c in layer}
                    for layer in self.cells[1:]
                ],
            }
        )


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


# --- shuffles ----------------------------------------------------------


def shuffle_trees(s: LevelTree, t: LevelTree) -> list[LevelTree]:
    """All order-preserving interleavings of the root branches of two
    height-<=1 trees, one output tree per interleaving pattern.

    For corollas every interleaving yields the same planar tree, so the
    returned list records the shuffle multiplicity: its length is always
    binomial(a+b, a) for branch counts a, b.
    """
    if s.height > 1 or t.height > 1:
        raise ShuffleUnsupportedError("shuffles are only defined for height <= 1")
    a, b = len(s.children), len(t.children)
    out = []
    for positions in itertools.combinations(range(a + b), a):
        chosen = set(positions)
        s_iter = iter(s.children)
        t_iter = iter(t.children)
        branches = tuple(
            next(s_iter) if i in chosen else next(t_iter) for i in range(a + b)
        )
        out.append(LevelTree(branches))
    return out
