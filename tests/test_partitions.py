from hypothesis import given, settings, strategies as st
import pytest

from fixedhooks.partitions import (
    Family,
    Partition,
    conjugate_parts,
    enumerate_partitions,
    enumerate_parts,
    partition_count,
)


@st.composite
def partition_strategy(draw, max_part=12, max_len=10):
    parts = draw(st.lists(st.integers(1, max_part), max_size=max_len))
    return Partition(sorted(parts, reverse=True))


def test_construction_strips_zeros():
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert Partition(()).parts == ()
    assert Partition(()).n == 0


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, -1))


@pytest.mark.parametrize("parts", [(2.7, 1), ("3", "1"), (3, 0.0), (2.0,)])
def test_construction_rejects_non_integer_parts(parts):
    with pytest.raises(TypeError):
        Partition(parts)


def test_conjugate_of_figure_example():
    assert Partition((4, 4, 3, 1)).conjugate().parts == (4, 3, 3, 2)


def test_conjugate_trivial_cases():
    assert Partition(()).conjugate().parts == ()
    assert Partition((5,)).conjugate().parts == (1, 1, 1, 1, 1)


@given(partition_strategy())
def test_conjugate_is_involution(lam):
    assert lam.conjugate().conjugate() == lam


def test_conjugate_involution_exhaustive_small():
    for n in range(26):
        for lam in enumerate_partitions(n):
            assert lam.conjugate().conjugate() == lam


def test_hook_lengths_match_figure():
    lam = Partition((4, 4, 3, 1))
    assert lam.hook_length(1, 1) == 7
    assert lam.hook_length(2, 3) == 3
    assert lam.hook_length(4, 1) == 1
    grid = [[7, 5, 4, 2], [6, 4, 3, 1], [4, 2, 1], [1]]
    for i, row in enumerate(grid, start=1):
        for j, value in enumerate(row, start=1):
            assert lam.hook_length(i, j) == value


def test_hook_length_outside_diagram():
    lam = Partition((4, 4, 3, 1))
    with pytest.raises(ValueError):
        lam.hook_length(3, 4)
    with pytest.raises(ValueError):
        lam.hook_length(5, 1)
    with pytest.raises(ValueError):
        lam.hook_length(0, 1)


def test_hook_equals_arm_plus_leg_plus_one():
    # two independent computations of the same statistic, every cell, n <= 20
    for n in range(21):
        for lam in enumerate_partitions(n):
            parts = lam.parts
            for i, part in enumerate(parts, start=1):
                for j in range(1, part + 1):
                    arm = part - j
                    leg = sum(1 for p in parts[i:] if p >= j)
                    assert lam.hook_length(i, j) == arm + leg + 1


def test_column_hooks_figure_values():
    lam = Partition((4, 4, 3, 1))
    assert lam.column_hooks(2) == (5, 4, 2)
    assert lam.column_hooks(1) == (7, 6, 4, 1)
    assert Partition(()).column_hooks(3) == ()


def test_column_hooks_strictly_decreasing_with_conjugate_length():
    for n in range(21):
        for lam in enumerate_partitions(n):
            conj = lam.conj_parts()
            for m in range(1, 7):
                hooks = lam.column_hooks(m)
                expected_len = conj[m - 1] if m <= len(conj) else 0
                assert len(hooks) == expected_len
                assert all(a > b for a, b in zip(hooks, hooks[1:]))


def test_enumeration_counts():
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert len(list(enumerate_partitions(10))) == 42
    assert [p.parts for p in enumerate_partitions(5, Family.DISTINCT)] == [
        (5,), (4, 1), (3, 2),
    ]


def test_enumeration_reverse_lexicographic():
    seen = [p.parts for p in enumerate_partitions(6)]
    assert seen[0] == (6,)
    assert seen[-1] == (1,) * 6
    assert seen == sorted(seen, reverse=True)


def test_family_filters_agree_with_predicates():
    for n in range(23):
        everything = [p.parts for p in enumerate_partitions(n)]
        for family in Family:
            direct = [p.parts for p in enumerate_partitions(n, family)]
            filtered = [parts for parts in everything if family.admits(parts)]
            assert direct == filtered


def test_family_step_and_distinct_agree_with_admits():
    for family in Family:
        assert family.step == (1 if family.admits((2,)) else 2)
        assert family.distinct == (not family.admits((1, 1)))


def test_partition_count_matches_enumeration_and_published_values():
    # p(n) is one coin change; listing the partitions is the independent
    # reference for small n, and OEIS A000041 for large n.
    for n in range(26):
        assert len(list(enumerate_parts(n))) == partition_count(n)
    assert partition_count(100) == 190569292
    assert partition_count(200) == 3972999029388
    assert partition_count(1000) == 24061467864032622473692149727991


def test_partition_count_large_n_has_no_deep_recursion():
    # the recursive fill nested n / max_part calls deep and overflowed here
    assert partition_count(2500, 2) == 1251


def test_partition_count_bounded():
    # parts <= m-1 backing the second color; m = 1 leaves only the empty one
    assert partition_count(0, 0) == 1
    assert partition_count(3, 0) == 0
    assert partition_count(6, 2) == 4  # 2+2+2, 2+2+1+1, 2+1^4, 1^6
    for n in range(12):
        assert partition_count(n, None) == sum(
            1 for _ in enumerate_parts(n)
        )


@given(partition_strategy())
def test_conjugate_preserves_weight(lam):
    assert lam.conjugate().n == lam.n


@given(st.integers(0, 14))
def test_conjugate_parts_column_counts(n):
    for lam in enumerate_partitions(n):
        conj = conjugate_parts(lam.parts)
        for j, count in enumerate(conj, start=1):
            assert count == sum(1 for p in lam.parts if p >= j)
