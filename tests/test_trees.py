import copy
import itertools
import pickle

import pytest

from thetacomb.cli import main
from thetacomb.gamma import parse_group
from thetacomb.hashcons import intern
from thetacomb.presheaf import em_cell_count, em_set
from thetacomb.trees import (
    LEAF, LevelTree, bracket, count_at_height, enumerate_trees, iter_forests,
)

from oracles import (
    NGraph, TreeParseError, corolla, enumerate_pruned, linear_tree, parse_tree, star,
    vertices_at_height,
)


def is_pruned(tree: LevelTree, n: int) -> bool:
    """True iff every leaf of the tree sits at height exactly n."""
    if not tree.children:
        return n == 0
    return all(is_pruned(c, n - 1) for c in tree.children)


def generated_order_is_total(g: NGraph) -> bool:
    """Street's criterion: the order generated by s(x) <= x <= t(x) on the
    union of all cells is total."""
    nodes = [c for layer in g.cells for c in layer]
    index = {c: i for i, c in enumerate(nodes)}
    k = len(nodes)
    # generating relations: s(x) <= x and x <= t(x)
    reach = [set() for _ in range(k)]  # j in reach[i]  <=>  i <= j
    for x, s in g.source.items():
        reach[index[s]].add(index[x])
    for x, t in g.target.items():
        reach[index[x]].add(index[t])
    # transitive closure by repeated relaxation (small graphs only)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            extra = set()
            for j in reach[i]:
                extra |= reach[j]
            if not extra <= reach[i]:
                reach[i] |= extra
                changed = True
    for i in range(k):
        for j in range(i + 1, k):
            if j not in reach[i] and i not in reach[j]:
                return False
    return True


def has_globular_identities(g: NGraph) -> bool:
    for layer in g.cells[2:]:
        for c in layer:
            s, t = g.source[c], g.target[c]
            if g.source[s] != g.source[t] or g.target[s] != g.target[t]:
                return False
    return True


def test_parse_basic():
    assert parse_tree("[]") == LEAF
    t = parse_tree("[[],[],[]]")
    assert t.height == 1 and t.edges == 3
    t = parse_tree("[[[]],[[],[]]]")
    assert t.height == 2 and t.edges == 5
    assert len(vertices_at_height(t, 2)) == 3


def test_parse_whitespace():
    assert parse_tree(" [ [] , [ [] ] ] ") == parse_tree("[[],[[]]]")


@pytest.mark.parametrize(
    "bad,pos", [("", 0), ("[", 1), ("[]]", 2), ("[[],]", 4), ("[] []", 3), ("[[]x]", 3)]
)
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(TreeParseError) as exc:
        parse_tree(bad)
    assert exc.value.position == pos


def test_render_round_trip():
    for e in range(9):
        for t in enumerate_trees(3, e):
            assert parse_tree(t.render()) == t


def _oracle_forests(h, w, pruned, memo):
    """Ordered forests of _oracle_trees(h, ., pruned) whose edges plus one
    per branch total w, by nested generators."""
    if w == 0:
        yield ()
        return
    least = h if pruned else 0  # the fewest edges a branch can have
    for e in range(w):
        rest = w - 1 - e
        if 0 < rest <= least:
            continue  # no branch fits in the rest
        for head in _oracle_trees(h, e, pruned, memo):
            for tail in _oracle_forests(h, rest, pruned, memo):
                yield (head, *tail)


def _oracle_trees(n, e, pruned, memo):
    """The trees with e edges and height <= n (pruned: every leaf at
    height n), memoised per (n, e) in any order."""
    key = (n, e, pruned)
    if key not in memo:
        if e == 0:
            memo[key] = [] if pruned and n else [LEAF]
        elif n == 0:
            memo[key] = []
        else:
            memo[key] = [LevelTree(f) for f in _oracle_forests(n - 1, e, pruned, memo)]
    return memo[key]


def _plain_render(tree):
    """The bracket encoding rebuilt recursively, with nothing cached."""
    return "[" + ",".join(_plain_render(c) for c in tree.children) + "]"


_ORACLE_MEMO: dict = {}


def oracle_listing(n, e, pruned=False):
    """Every tree of the family, sorted by its uncached bracket string."""
    return sorted(_oracle_trees(n, e, pruned, _ORACLE_MEMO), key=_plain_render)


@pytest.mark.parametrize("pruned", [False, True])
def test_generated_order_matches_sorted_oracle(pruned):
    for n in range(1 if pruned else 0, 6):
        for e in range(11):
            want = oracle_listing(n, e, pruned)
            got = enumerate_pruned(n, e) if pruned else enumerate_trees(n, e)
            assert got == want, (n, e)
            assert [t.render() for t in got] == [_plain_render(t) for t in want]


def test_render_is_the_plain_render_and_parses_back():
    for n in range(5):
        for e in range(9):
            for t in enumerate_trees(n, e):
                assert parse_tree(_plain_render(t)) is t
                assert t.render() == _plain_render(t)


def test_one_object_per_shape():
    for text in ("[]", "[[],[[]]]", "[[[]],[]]", "[[[[]]],[],[[],[]]]"):
        assert parse_tree(text) is parse_tree(text)
    assert LevelTree((LEAF, LEAF)) is corolla(2) is parse_tree("[[],[]]")
    assert LevelTree((LEAF,)) is not LevelTree((LEAF, LEAF))
    assert len({t for e in range(7) for t in enumerate_trees(3, e)}) == sum(
        len(enumerate_trees(3, e)) for e in range(7))


def test_copies_and_pickles_are_the_shape_itself():
    for t in (LEAF, parse_tree("[[],[[]]]"), linear_tree(6), corolla(40)):
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy([corolla(2), {corolla(2): 1}]) == [corolla(2), {corolla(2): 1}]


def test_a_shape_is_frozen():
    with pytest.raises(AttributeError):
        LEAF.children = (LEAF,)
    with pytest.raises(AttributeError):
        corolla(2).height = 0
    with pytest.raises(AttributeError):
        del corolla(2).edges
    assert LEAF.children == () and LEAF.height == LEAF.edges == 0
    assert LEAF.render() == "[]" and LevelTree() is LEAF


def _small_listings():
    for pruned in (False, True):
        for n in range(1 if pruned else 0, 6):
            for e in range(11):
                yield n, e, pruned


def test_forests_render_as_their_trees():
    # the bracket fold is what the trees command prints
    for n, e, pruned in _small_listings():
        rendered = [bracket(f) for f in iter_forests(n, e, pruned, bracket)]
        assert [t.render() for t in map(LevelTree, iter_forests(n, e, pruned))] == rendered


def test_the_fold_builds_only_what_it_lists():
    # every value that node returns is a branch of some listed tree: no
    # work goes to a branch that no listed tree can hold
    for n, e, pruned in _small_listings():
        built = []

        def node(kids):
            built.append([kids])  # a fresh object per call
            return built[-1]

        reached = set()
        todo = [value for forest in iter_forests(n, e, pruned, node) for value in forest]
        while todo:
            value = todo.pop()
            if id(value) not in reached:
                reached.add(id(value))
                todo.extend(value[0])
        assert {id(value) for value in built} == reached, (n, e, pruned)


def test_the_leaf_fold_counts_the_leaves():
    def leaves(kids):
        return sum(kids) or 1

    for n, e, pruned in _small_listings():
        folded = [leaves(f) for f in iter_forests(n, e, pruned, leaves)]
        listed = list(map(LevelTree, iter_forests(n, e, pruned)))
        assert folded == [t.render().count("[]") for t in listed]
        if pruned:  # every leaf at height n
            assert folded == [count_at_height(t, n) for t in listed]


def test_streamed_roots_are_not_interned(capsys):
    # the trees command and the census fold to strings and counts, so they
    # intern no value, trees included
    z2 = parse_group("z2")
    before = intern.cache_info().currsize
    assert main(["trees", "--n", "4", "--edges", "12", "--pruned"]) == 0
    printed = capsys.readouterr().out
    census = [em_cell_count(z2, 2, d) for d in range(23)]
    assert intern.cache_info().currsize == before
    assert census[22] == 10946  # with z2 one cell per shape
    assert printed == "".join(t.render() + "\n" for t in enumerate_pruned(4, 12))


def test_em_bases_keep_the_oracle_order():
    # the basis order feeds every boundary matrix
    for group in ("z2", "z3", "z4", "z2xz2"):
        pi = parse_group(group)
        for n in range(1, 4):
            cells = em_set(pi, n).cells
            for d in range(1, 9):
                want = [
                    (t, x)
                    for t in oracle_listing(n, d, pruned=True)
                    for x in itertools.product(
                        pi.non_neutral(), repeat=len(vertices_at_height(t, n)))
                ]
                assert cells(d) == want, (group, n, d)


def test_vertices_at_height():
    assert vertices_at_height(linear_tree(2), 2) == [(1, 1)]
    assert vertices_at_height(corolla(3), 1) == [(1,), (2,), (3,)]
    assert vertices_at_height(corolla(3), 5) == []
    # planar order is left to right
    t = parse_tree("[[[]],[[],[]]]")
    assert vertices_at_height(t, 2) == [(1, 1), (2, 1), (2, 2)]


def test_enumerate_trees_examples():
    assert [t.render() for t in enumerate_trees(1, 3)] == ["[[],[],[]]"]
    assert sorted(t.render() for t in enumerate_trees(2, 2)) == ["[[[]]]", "[[],[]]"]
    assert len(enumerate_trees(2, 3)) == 4
    assert enumerate_trees(0, 0) == [LEAF]


def test_enumerate_trees_rejects_negative_height():
    # there are no trees of negative height, not even the leaf
    with pytest.raises(ValueError):
        enumerate_trees(-1, 2)
    with pytest.raises(ValueError):
        enumerate_trees(-1, 0)
    # nor trees with a negative number of edges, at any height
    for n in (0, 1, 3):
        with pytest.raises(ValueError, match="edge count e must be >= 0"):
            enumerate_trees(n, -1)
        with pytest.raises(ValueError, match="edge count e must be >= 0"):
            iter_forests(n, -2)
    for n in (1, 3):
        with pytest.raises(ValueError, match="edge count e must be >= 0"):
            enumerate_pruned(n, -1)
        with pytest.raises(ValueError, match="edge count e must be >= 0"):
            iter_forests(n, -1, pruned=True)
    with pytest.raises(ValueError, match="corolla leaf count -1 is negative"):
        corolla(-1)
    with pytest.raises(ValueError, match="linear tree height -1 is negative"):
        linear_tree(-1)


def _count_trees_oracle(n, e, memo=None):
    """Independent recurrence: trees = ordered forests of shorter trees."""
    if memo is None:
        memo = {}
    if (n, e) in memo:
        return memo[(n, e)]
    if e == 0:
        result = 1
    elif n == 0:
        result = 0
    else:
        def forests(m, budget):
            if m == 0:
                return 1 if budget == 0 else 0
            return sum(
                _count_trees_oracle(n - 1, e0, memo) * forests(m - 1, budget - e0)
                for e0 in range(budget + 1)
            )

        result = sum(forests(m, e - m) for m in range(1, e + 1))
    memo[(n, e)] = result
    return result


def test_enumerate_trees_against_recurrence_oracle():
    for n in range(5):
        for e in range(9):
            listing = enumerate_trees(n, e)
            assert len(set(listing)) == len(listing)
            assert len(listing) == _count_trees_oracle(n, e)
            assert all(t.edges == e and t.height <= n for t in listing)
            # sorted canonical order
            rendered = [t.render() for t in listing]
            assert rendered == sorted(rendered)


def test_enumerate_trees_monotone_in_height():
    for e in range(9):
        counts = [len(enumerate_trees(n, e)) for n in range(6)]
        assert counts == sorted(counts)


def test_enumerate_pruned_counts():
    assert [len(enumerate_pruned(2, e)) for e in range(2, 8)] == [1, 1, 2, 3, 5, 8]
    assert [len(enumerate_pruned(3, e)) for e in range(3, 9)] == [1, 1, 2, 4, 7, 13]
    assert all(len(enumerate_pruned(1, k)) == 1 for k in range(1, 8))
    for t in enumerate_pruned(2, 6):
        assert is_pruned(t, 2)
    with pytest.raises(ValueError, match="pruned enumeration needs n >= 1"):
        iter_forests(0, 3, pruned=True)


def test_enumerate_pruned_matches_filtered_trees():
    # oracle: filter all height-<=n trees; covers e < n and e not divisible by n
    for n in range(1, 5):
        for e in range(11):
            want = [t for t in enumerate_trees(n, e) if is_pruned(t, n)]
            assert enumerate_pruned(n, e) == want


def test_enumerate_pruned_is_not_exponential():
    # a pruned 1-tree is a corolla; walking compositions of the edges would
    # take 2^59 steps here
    assert enumerate_pruned(1, 60) == [corolla(60)]
    # branches are walked in a loop, not by one nested generator each
    assert enumerate_pruned(1, 1000) == enumerate_trees(1, 1000) == [corolla(1000)]
    assert len(enumerate_pruned(2, 20)) == 4181


def test_pruned_counts_satisfy_dolan_recursion():
    # counts c(e) obey c(n+k+n) = sum of the n previous ones, weight p-1 = 1
    for n in range(2, 5):
        counts = {e: len(enumerate_pruned(n, e)) for e in range(n, n + 13)}
        for k in range(13 - n):
            total = sum(counts[n + k + j] for j in range(n))
            assert counts[n + k + n] == total


def test_star_corolla():
    g = star(corolla(3), 1)
    assert [len(layer) for layer in g.cells] == [4, 3]
    assert generated_order_is_total(g)
    for cell in g.cells[1]:
        assert g.source[cell] in g.cells[0] and g.target[cell] in g.cells[0]


def test_star_linear_tree_is_globe():
    for k in range(4):
        g = star(linear_tree(k), k)
        layers = [len(layer) for layer in g.cells]
        assert layers == [2] * k + [1]
        assert generated_order_is_total(g)


def test_star_height_bound():
    with pytest.raises(ValueError):
        star(linear_tree(2), 1)
    # padding with empty layers is fine
    g = star(corolla(2), 3)
    assert [len(layer) for layer in g.cells] == [3, 2, 0, 0]


def test_star_top_cells_count_height_n_vertices():
    for e in range(6):
        for t in enumerate_trees(2, e):
            g = star(t, 2)
            assert len(g.cells[2]) == len(vertices_at_height(t, 2))


def test_star_globular_and_total_order():
    for n in range(1, 4):
        for e in range(8):
            for t in enumerate_trees(n, e):
                g = star(t, n)
                assert has_globular_identities(g)
                assert generated_order_is_total(g)
