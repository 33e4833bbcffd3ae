"""Planar level-trees.

A level-tree is a finite planar rooted tree; vertices are graded by their
edge-distance from the root.  Trees of height <= n are the cell shapes used
throughout the rest of the library.  This module provides the data
structure, a bracket-string encoding, enumeration of all trees or only
the pruned ones, and the star construction producing globular n-graphs.

Enumeration generates the trees already in lexicographic order of their
bracket strings and streams them: no sort, and the only memo is the
ordered list of candidate children per height.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class TreeParseError(ValueError):
    """Malformed bracket string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
        """The bracket encoding, joined from the children's on first use and
        kept.  It is a plain attribute, not a cached_property: reaching
        through __dict__ would give every rendered tree a dict of its own."""
        try:
            return self._bracket
        except AttributeError:
            text = "[" + ",".join(c.render() for c in self.children) + "]"
            object.__setattr__(self, "_bracket", text)
            return text

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


def _forests(kids: list, high: int, slack: int, least: int) -> Iterator[tuple]:
    """(forest, weight) for the forests over kids, (tree, edges) pairs in
    bracket order, whose edges plus one per branch lie in [high - slack,
    high], in bracket order.  A forest sorts after its extensions, because
    ',' < ']', so the stack walk yields it after all of them.  A rest with
    0 < rest <= least fits no branch; it is skipped unless the forest may
    end there."""
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
                yield tuple(branch), high - left
            if branch:
                branch.pop()


# (height, pruned) -> (edge bound, _ordered list at that bound)
_CHILDREN: dict[tuple[int, bool], tuple[int, list]] = {}


def _ordered(h: int, most: int, pruned: bool) -> list[tuple[LevelTree, int]]:
    """(tree, edges) for the trees of height <= h, or if pruned those with
    every leaf at height h, with at most `most` edges, in bracket order.
    Built once per height at the largest bound asked for, then filtered."""
    if h == 0:
        return [(LEAF, 0)] if most >= 0 else []
    built, listing = _CHILDREN.get((h, pruned), (-1, []))
    if built < most:
        kids = _ordered(h - 1, most - 1, pruned)
        # a pruned tree of height h >= 1 has a branch, so weight >= 1
        forests = _forests(kids, most, most - pruned, h - 1 if pruned else 0)
        listing = [(LevelTree(forest), e) for forest, e in forests]
        _CHILDREN[(h, pruned)] = (most, listing)
        return listing
    return [kid for kid in listing if kid[1] <= most]


def iter_trees(n: int, e: int, pruned: bool = False) -> Iterator[LevelTree]:
    """The trees with e edges and height <= n, or if pruned only those with
    every leaf at height n, one at a time in lexicographic order of the
    bracket encoding."""
    if n < 0:
        raise ValueError("tree height bound n must be >= 0")
    if pruned and n < 1:
        raise ValueError("pruned enumeration needs n >= 1")
    if e == 0 or n == 0 or pruned and e < n:  # a pruned n-tree has >= n edges
        return iter([LEAF] if e == 0 and not pruned else [])
    kids = _ordered(n - 1, e - 1, pruned)  # a pruned branch has >= n - 1 edges
    forests = _forests(kids, e, 0, n - 1 if pruned else 0)
    return (LevelTree(forest) for forest, _ in forests)


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
