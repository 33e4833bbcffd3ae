import itertools

import pytest

from thetacomb.trees import (
    LEAF,
    LevelTree,
    ShuffleUnsupportedError,
    TreeParseError,
    corolla,
    enumerate_pruned,
    NGraph,
    enumerate_trees,
    is_pruned,
    linear_tree,
    parse_tree,
    shuffle_trees,
    star,
    vertices_at_height,
)


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


@pytest.mark.parametrize("bad,pos", [("", 0), ("[", 1), ("[]]", 2), ("[[],]", 4), ("[] []", 3)])
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(TreeParseError) as exc:
        parse_tree(bad)
    assert exc.value.position == pos


def test_render_round_trip():
    for e in range(9):
        for t in enumerate_trees(3, e):
            assert parse_tree(t.render()) == t


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


def test_enumerate_pruned_matches_filtered_trees():
    # oracle: filter all height-<=n trees; covers e < n and e not divisible by n
    for n in range(1, 5):
        for e in range(9):
            want = [t for t in enumerate_trees(n, e) if is_pruned(t, n)]
            assert enumerate_pruned(n, e) == want


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


def test_star_json_shape():
    import json

    data = json.loads(star(parse_tree("[[],[[]]]"), 2).to_json())
    assert set(data) == {"cells", "source", "target"}
    assert len(data["cells"]) == 3


def test_shuffles():
    assert len(shuffle_trees(corolla(1), corolla(1))) == 2
    assert shuffle_trees(LEAF, corolla(2)) == [corolla(2)]
    assert len(shuffle_trees(corolla(2), corolla(1))) == 3
    import math

    for a, b in itertools.product(range(4), repeat=2):
        out = shuffle_trees(corolla(a), corolla(b))
        assert len(out) == math.comb(a + b, a)
        assert all(t.edges == a + b for t in out)


def test_shuffles_reject_tall_trees():
    with pytest.raises(ShuffleUnsupportedError):
        shuffle_trees(linear_tree(2), corolla(1))
