import ast
from collections import Counter
from functools import lru_cache, wraps
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fixedhooks.oracles as oracles
from fixedhooks.partitions import (
    Family,
    Partition,
    enumerate_partitions,
    enumerate_parts,
    partition_count,
)
from fixedhooks.oracles import (
    colored_t11_witnesses,
    count_colored_thm11,
    count_colored_thm13,
    count_fixed_hooks,
    count_hooks_of_size,
    count_restricted_thm12,
    fixed_hook_witnesses,
    hook_tally,
    t11_qualifying_sizes,
)
from census_anchors import (
    HOOKS_OF_SIZE,
    check_bacher_manivel,
    check_conjugate_rows,
    check_every_fixedness_rows,
    check_hooks_of_size,
    family_counts,
)


def test_fixed_by_part_examples():
    assert count_fixed_hooks(5, 1, 0, 2, by="part") == 1  # only (3, 2)
    assert count_fixed_hooks(0, 2, 0, 3, by="part") == 0
    assert count_fixed_hooks(12, 2, 2, 4, by="part") == 7


def test_fixed_by_part_requires_cell_in_column():
    with pytest.raises(ValueError):
        count_fixed_hooks(5, 3, 0, 2, by="part")


def test_fixed_by_part_figure_witness():
    lam = Partition((4, 4, 3, 1))
    assert lam.hook_length(2, 2) == 4 == 2 + 2
    assert lam in fixed_hook_witnesses(12, 2, 2, 4, by="part")


def test_fixed_by_hook_examples():
    assert count_fixed_hooks(12, 2, 2, 4) == 18
    # row forced to k - h <= 0 means no hook can be h-fixed
    assert count_fixed_hooks(9, 1, 5, 3) == 0
    # h = k-1 forces row 1: hooks of size k in the top cell of column 1
    for n in range(1, 9):
        for k in range(1, n + 1):
            direct = sum(
                1
                for lam in enumerate_partitions(n)
                if lam.parts and lam.hook_length(1, 1) == k
            )
            assert count_fixed_hooks(n, 1, k - 1, k) == direct


def test_worked_example_m3_n10():
    assert sum(count_fixed_hooks(10, 3, 0, k) for k in range(1, 11)) == 10
    assert count_colored_thm11(10, 3) == 10


def test_hooks_of_size_examples():
    assert count_hooks_of_size(3, 1, 1) == 2
    assert count_hooks_of_size(3, 1, None) == 4
    assert count_hooks_of_size(1, 1, 1) == 1


def test_hooks_of_size_column_sum_is_total():
    for n in range(12):
        for k in range(1, n + 1):
            per_column = sum(count_hooks_of_size(n, k, m) for m in range(1, n + 1))
            assert per_column == count_hooks_of_size(n, k, None)


def test_hooks_of_size_column_sum_full_range():
    # same invariant up to n = 20 for every family, one diagram pass per n
    from collections import Counter

    for family in Family:
        for n in range(21):
            by_col: Counter = Counter()
            total: Counter = Counter()
            for lam in enumerate_partitions(n, family):
                conj = lam.conj_parts()
                for i, part in enumerate(lam.parts, start=1):
                    for m in range(1, part + 1):
                        hook = part + conj[m - 1] - i - m + 1
                        by_col[(m, hook)] += 1
                        total[hook] += 1
            for k in set(total):
                assert total[k] == sum(
                    by_col.get((m, k), 0) for m in range(1, n + 1)
                )


def test_at_most_one_fixed_hook_per_column():
    # column hooks strictly decrease while i + h strictly increases
    for n in range(19):
        for lam in enumerate_partitions(n):
            for m in range(1, 7):
                hooks = lam.column_hooks(m)
                for h in range(-4, n + 1):
                    hits = sum(1 for i, hk in enumerate(hooks, 1) if hk == i + h)
                    assert hits <= 1


def test_pair_count_equals_partition_count_for_theorem_11():
    # because of the one-per-column bound, summing over hook sizes counts
    # exactly the partitions owning a 0-fixed hook in the column
    for n in range(15):
        for m in range(1, 4):
            pair_count = sum(count_fixed_hooks(n, m, 0, k) for k in range(1, n + 1))
            partitions = len(fixed_hook_witnesses(n, m, 0))
            assert pair_count == partitions


def test_t11_qualifying_sizes():
    assert t11_qualifying_sizes((2, 2, 1), 1) == [1, 2]
    assert t11_qualifying_sizes((7, 1, 1, 1), 3) == [1]
    assert t11_qualifying_sizes((2, 2, 2, 2), 3) == [2]
    assert t11_qualifying_sizes((3, 2, 2, 1), 2) == []


def test_colored_t11_m1_multiplicity_reading():
    # an object may qualify for two sizes and is counted once per size
    assert count_colored_thm11(5, 1) == 3
    assert count_colored_thm11(0, 3) == 0
    assert count_colored_thm11(10, 1) == 15
    assert count_colored_thm11(10, 1) == sum(
        count_fixed_hooks(10, 1, 0, k) for k in range(1, 11)
    )


def test_colored_t11_witnesses_match_count():
    for n in range(11):
        for m in (1, 2, 3):
            assert len(colored_t11_witnesses(n, m)) == count_colored_thm11(n, m)


def test_restricted_t12_examples():
    assert count_restricted_thm12(3, 2, 2) == 0  # negative target weight
    assert count_restricted_thm12(6, 2, 0) == 2  # (4,2) and (2,1,1,1,1)
    assert count_restricted_thm12(3, 1, 0) == 1  # (2,1)
    # No object of n <= 30 has a million parts >= 4: the row is zero before
    # any coin change, which here would run over two million weights.
    assert count_restricted_thm12(30, 2, -10**6) == 0


def test_restricted_t12_against_direct_enumeration():
    for n in range(14):
        for m in (1, 2, 3):
            for h in range(-2, 3):
                t = n - m * h
                direct = 0
                if t >= 0:
                    for lam in enumerate_partitions(t):
                        parts = lam.parts
                        if parts.count(m) != 1:
                            continue
                        if any(m < p < 2 * m for p in parts):
                            continue
                        if sum(1 for p in parts if p >= 2 * m) >= max(0, -h):
                            direct += 1
                assert count_restricted_thm12(n, m, h) == direct


def test_colored_t13_examples():
    assert count_colored_thm13(-3, 2, 3, 0) == 0
    # m=1, k=1 degenerates to "no parts of size 1"
    for nprime in range(12):
        no_ones = sum(
            1 for lam in enumerate_partitions(nprime) if 1 not in lam.parts
        )
        assert count_colored_thm13(nprime, 1, 1, 0) == no_ones
    assert count_fixed_hooks(8, 2, 0, 3, by="part") == count_colored_thm13(3, 2, 3, 0) == 3


def test_colored_t13_variants_agree_at_h_zero():
    for m in (1, 2, 3):
        for k in range(m, m + 3):
            for nprime in range(14):
                stated = count_colored_thm13(nprime, m, k, 0, variant="stated")
                derived = count_colored_thm13(nprime, m, k, 0, variant="derived")
                assert stated == derived


def test_colored_t13_derived_at_a_large_fixedness():
    # The distinct parts under the hook are capped at u + h, here above 1000;
    # one distinct-parts table admits each size once for every u, not a
    # recursion per cap.
    assert count_colored_thm13(3000, 1, 2, 1000, variant="derived") == 1
    assert count_colored_thm13(3010, 1, 2, 1000, variant="derived") == 35


@pytest.mark.parametrize("family", list(Family))
def test_counts_equal_witness_walk(family):
    # The census and the walk down column_hooks are two formulas for the
    # same cells.  A column has at most one h-fixed hook, so each count is
    # the number of partitions owning one.
    for n in range(15):
        for m in range(1, 5):
            for h in range(-3, 6):
                for k in (None, *range(m, 9)):
                    for by in ("hook", "part"):
                        assert count_fixed_hooks(n, m, h, k, family, by) == len(
                            fixed_hook_witnesses(n, m, h, k, family, by)
                        ), (n, m, h, k, by)


@pytest.mark.parametrize("call", [count_fixed_hooks, fixed_hook_witnesses])
@pytest.mark.parametrize("m", [0, -1])
def test_fixed_hook_queries_reject_column_below_one(call, m):
    with pytest.raises(ValueError, match="column index m must be >= 1"):
        call(10, m, 0)


@pytest.mark.parametrize("call", [count_fixed_hooks, fixed_hook_witnesses])
def test_fixed_hook_queries_reject_unknown_by(call):
    with pytest.raises(ValueError, match="by must be"):
        call(10, 2, 0, 3, by="bogus")
    with pytest.raises(ValueError, match="no cell in column"):
        call(10, 3, 0, 2, by="part")


@pytest.mark.parametrize("call", [
    lambda: count_colored_thm11(5, 0),
    lambda: count_restricted_thm12(5, 0, 0),
    lambda: count_colored_thm13(5, 0, 1),
    lambda: count_colored_thm13(5, 2, 1),
    lambda: count_hooks_of_size(5, 2, 0),
    lambda: Partition((3, 1)).column_hooks(0),
])
def test_column_checks_are_shared(call):
    with pytest.raises(ValueError, match="column index m must be >= 1|no cell in column"):
        call()


@pytest.mark.parametrize("call", [
    lambda: count_fixed_hooks(-1, 1, 0),
    lambda: count_fixed_hooks(-3, 2, 0, 2, by="part"),
    lambda: count_hooks_of_size(-1, 1),
    lambda: count_hooks_of_size(-2, 1, 1),
    lambda: fixed_hook_witnesses(-1, 1, 0),
])
def test_counts_reject_negative_n(call):
    with pytest.raises(ValueError, match="n must be non-negative"):
        call()


def test_counts_reject_unknown_family():
    with pytest.raises(ValueError):
        count_fixed_hooks(5, 1, 0, family="even")
    with pytest.raises(ValueError):
        count_hooks_of_size(5, 1, family="even")
    assert count_hooks_of_size(9, 3, family="odd") == count_hooks_of_size(9, 3, family=Family.ODD)


@pytest.mark.parametrize("call", [
    lambda: count_fixed_hooks(5, 1, 0, 0),
    lambda: count_fixed_hooks(5, 2, 0, -1, by="hook"),
    lambda: fixed_hook_witnesses(5, 1, 0, 0),
    lambda: count_hooks_of_size(5, 0),
    lambda: count_hooks_of_size(5, 0, 1),
])
def test_counts_reject_hook_size_below_one(call):
    with pytest.raises(ValueError, match="hook size k must be >= 1"):
        call()


def test_tally_matches_single_call_oracles():
    for family in Family:
        tally = hook_tally(12, family)
        for n in range(13):
            for m in (1, 2, 3):
                for k in range(m, 7):
                    for h in range(-2, k):
                        assert tally.by_part.get((n, m, k, h), 0) == count_fixed_hooks(
                            n, m, h, k, family, by="part"
                        )
                        assert tally.by_hook.get((n, m, k, h), 0) == count_fixed_hooks(
                            n, m, h, k, family, by="hook"
                        )
                for k in range(1, 7):
                    assert tally.by_hook.row((m, k, None))[n] == count_hooks_of_size(
                        n, k, m, family
                    )
            for k in range(1, 7):
                assert tally.hooks_total.get((n, k), 0) == count_hooks_of_size(
                    n, k, None, family
                )


def test_point_counts_leave_the_cache_empty_under_a_wrapper(monkeypatch):
    # A profiler wraps hook_tally with functools.wraps, whose __wrapped__ is
    # then the cache itself: a point count read through it once cached its
    # one-off tally.
    cached = oracles.hook_tally

    @wraps(cached)
    def traced(*args, **kwargs):
        return cached(*args, **kwargs)

    monkeypatch.setattr(oracles, "hook_tally", traced)
    cached.cache_clear()
    assert count_fixed_hooks(12, 2, 2, 4, by="part") == 7
    assert count_hooks_of_size(12, 3, 2, Family.DISTINCT) > 0
    assert cached.cache_info().currsize == 0


def test_tally_is_read_only():
    # The census is cached and shared by every caller.
    tally = hook_tally(5)
    with pytest.raises(TypeError):
        tally.by_part[(5, 1, 5, 0)] = 1


@lru_cache(maxsize=None)
def _reference_tally(max_n, family):
    """The tally by enumeration, the ground truth of the decomposition: every
    cell of every partition, one Counter increment per table per row key,
    the hooks of size k in column m at by_hook's key (m, k, None)."""
    by_part, by_hook, hooks_total = Counter(), Counter(), Counter()
    for n in range(max_n + 1):
        for parts in enumerate_parts(n, family):
            conj = Partition(parts).conj_parts()
            for i, part in enumerate(parts, start=1):
                for m in range(1, part + 1):
                    hook = part + conj[m - 1] - i - m + 1
                    h = hook - i
                    hooks_total[(n, hook)] += 1
                    by_part[(n, m, part, h)] += 1
                    by_hook[(n, m, hook, h)] += 1
                    by_hook[(n, m, hook, None)] += 1
    return by_part, by_hook, hooks_total


def _tables(tally):
    return tally.by_part, tally.by_hook, tally.hooks_total


def _assert_rows_match(table, ref, keys, max_n):
    for key in keys:
        assert table.row(key) == [ref[(n, *key)] for n in range(max_n + 1)], key


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize(
    "max_n, max_m",
    [(20, 1), (20, 2), (20, 6), (20, 25), (29, 6)],
    ids=["1", "2", "6", "25", "n29-6"],
)
def test_tally_equals_per_cell_reference(family, max_n, max_m):
    # Reading every row of the columns m <= max_m, their every-fixedness rows
    # included, and of hooks_total, from a fresh tally matches the reference
    # and computes those rows alone.
    # max_m = 25 leaves no cell right of column max_m for n <= 20; n <= 29
    # with max_m = 6 is the range verify --all reads.
    tally = oracles._hook_tally(max_n, family)
    for table, ref in zip(_tables(tally), _reference_tally(max_n, family)):
        keys = {entry[1:] for entry in ref if len(entry) == 2 or entry[1] <= max_m}
        _assert_rows_match(table, ref, keys, max_n)
        assert set(table._packed) == keys


@pytest.mark.parametrize("family", list(Family))
def test_tally_equals_per_cell_reference_in_every_column(family):
    # Every key that enumeration produces at n <= 29, in every column, and
    # zero rows at keys it never produces: a column m < 1, k < m, h >= hook,
    # and a part or hook above max_n, at every fixedness too.
    max_n = 29
    tally = hook_tally(max_n, family)
    refs = _reference_tally(max_n, family)
    for table, ref in zip(_tables(tally), refs):
        _assert_rows_match(table, ref, {entry[1:] for entry in ref}, max_n)
    cells = [(m, k, h) for m in (-1, 0, 1, 2, 3, 7) for k in range(1, 33) for h in (-2, 0, 1, 5)]
    columns = [(m, k, None) for m in (-1, 0, 1, 2, 30) for k in (1, 3, 30, 31, 40)]
    never = [
        [(m, k, h) for m, k, h in cells if m < 1 or k < m or k > max_n],
        [(m, k, h) for m, k, h in cells + columns
         if m < 1 or (h is not None and h >= k) or k > max_n],
        [(30,), (31,), (40,)],
    ]
    for table, keys, ref in zip(_tables(tally), never, refs):
        assert all((n, *key) not in ref for key in keys for n in range(max_n + 1))
        _assert_rows_match(table, ref, keys, max_n)
    assert dict(tally.hooks_total) == dict(refs[2])
    # The key (m, None, h) of by_hook counts the h-fixed hooks of every size.
    for m in range(1, 5):
        for h in range(-3, 6):
            every = [sum(refs[1][(n, m, hook, h)] for hook in range(1, n + 1))
                     for n in range(max_n + 1)]
            assert tally.by_hook.row((m, None, h)) == every, (m, h)


@pytest.mark.parametrize("family", list(Family))
def test_every_size_rows_equal_their_sum_over_sizes_at_n60(family):
    # by_hook's (m, None, h) row, T11's hook-sum key and what count
    # fixed-by-* --sum-k reads, is tied to enumeration only at n <= 29
    # above.  A hook of size k has k cells, so k <= max_n is every size.
    max_n = 60
    by_hook = hook_tally(max_n, family).by_hook
    for m in range(1, 5):
        for h in range(-3, 6):
            rows = [by_hook.row((m, k, h)) for k in range(1, max_n + 1)]
            assert by_hook.row((m, None, h)) == [sum(col) for col in zip(*rows)], (m, h)


def test_reading_one_row_computes_only_that_row():
    tally = oracles._hook_tally(29, Family.ALL)
    assert tally.by_hook.row((2, 4, 1)) == tally.by_hook.row((2, 4, 1))
    assert tally.by_hook.get((20, 2, 3, None), 0) > 0
    assert tally.hooks_total.get((20, 3), 0) > 0
    cached = {name: list(table._packed) for name, table in zip("pbt", _tables(tally))}
    assert cached == {"p": [], "b": [(2, 4, 1), (2, 3, None)], "t": [(3,)]}


def test_tally_rejects_negative_n_and_unknown_family():
    with pytest.raises(ValueError, match="n must be non-negative"):
        hook_tally(-1)
    with pytest.raises(ValueError):
        hook_tally(5, "even")


def test_census_cells_at_n29():
    # The cells of every partition of n <= 29 in the four families, the
    # count a traced benchmark run reports for the census.
    assert sum(sum(hook_tally(29, f).hooks_total.values()) for f in Family) == 667_734


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
def test_unpack_round_trips_at_every_slot_width(width):
    assert oracles._slot_width(2**width - 1) == width
    assert oracles._slot_width(2**width) == {8: 16, 16: 32, 32: 64}.get(width, width + 64)
    row = [0, 1, 2**width - 1, 5, 2 ** (width - 1), 0, 7]
    packed = sum(count << n * width for n, count in enumerate(row))
    assert oracles._unpack(packed, width, len(row)) == row
    assert oracles._unpack(packed, width, len(row) + 3) == row + [0, 0, 0]
    with pytest.raises(OverflowError):
        oracles._unpack(packed, width, len(row) - 1)
    with pytest.raises(OverflowError):
        oracles._unpack(packed | 1 << (len(row) + 2) * width, width, len(row))


def test_tally_hooks_of_size_k_are_k_times_parts_of_size_k():
    # Bacher and Manivel, "Hooks and powers of parts in partitions" (Sem.
    # Lothar. Combin. 47, 2001): over all partitions of n, the hooks of
    # length k number k times the parts equal to k.
    tally = hook_tally(22)
    for n in range(23):
        parts_of_size = Counter(p for parts in enumerate_parts(n) for p in parts)
        for k in range(1, n + 1):
            assert tally.hooks_total.get((n, k), 0) == k * parts_of_size[k]


def test_tally_hooks_of_size_k_by_partition_numbers_to_n80():
    # The same theorem with the parts equal to k counted as sum_{j>=1}
    # p(n - jk), and the n cells of each partition of n, hold up to n = 80,
    # where the counts pass 2**30, without listing a partition.
    assert 80 * partition_count(80) > 2**30
    check_bacher_manivel(80, range(1, 81))
    hooks_total = hook_tally(80).hooks_total
    for n in range(81):
        assert sum(hooks_total.row((k,))[n] for k in range(1, n + 1)) == n * partition_count(n)


@pytest.mark.parametrize("family", [Family.ODD, Family.DISTINCT, Family.ODD_DISTINCT])
def test_tally_family_hooks_of_every_size_are_n_times_count_to_n60(family):
    # Each cell has exactly one hook, so the hooks of every size in the
    # family's partitions of n number n*c(n).
    count = family_counts(family, 60)
    rows = [hook_tally(60, family).hooks_total.row((k,)) for k in range(1, 61)]
    assert [sum(row[n] for row in rows) for n in range(61)] == [n * c for n, c in enumerate(count)]


@pytest.mark.parametrize("family", list(Family))
def test_hooks_by_part_sizes_equal_column_hooks_to_n22(family):
    # The part-size rules for hooks of size 1 to 4 against the hook length
    # of every cell of every partition of n <= 22, column by column.
    max_n = 22
    hooks = [Counter() for _ in range(max_n + 1)]
    for n in range(max_n + 1):
        for parts in enumerate_parts(n, family):
            lam = Partition(parts)
            for m in range(1, max(parts, default=0) + 1):
                hooks[n].update(lam.column_hooks(m))
    for k, hooks_of_size in HOOKS_OF_SIZE.items():
        assert hooks_of_size(family, max_n) == [count[k] for count in hooks], k


@pytest.mark.parametrize("family", list(Family))
def test_tally_hooks_of_size_two_by_part_sizes_to_n60(family):
    check_hooks_of_size(2, 60, (family,))


@pytest.mark.parametrize("family", list(Family))
def test_tally_hooks_of_size_three_by_part_sizes_to_n60(family):
    check_hooks_of_size(3, 60, (family,))


@pytest.mark.parametrize("family", list(Family))
def test_tally_hooks_of_size_four_by_part_sizes_to_n60(family):
    check_hooks_of_size(4, 60, (family,))


def test_tally_columns_are_conjugate_to_rows_to_n60():
    check_conjugate_rows(60, range(1, 9), range(1, 15))


@pytest.mark.parametrize("family", list(Family))
def test_tally_hooks_of_size_one_are_distinct_part_sizes_to_n60(family):
    check_hooks_of_size(1, 60, (family,))


@pytest.mark.parametrize("family", list(Family))
def test_tally_by_hook_summed_over_h_is_its_every_fixedness_row(family):
    check_every_fixedness_rows(60, (family,), range(1, 8), range(1, 12))


def test_hooks_of_size_k_by_partition_numbers_at_n200():
    # The same theorem at n = 200 through the single-count path, whose rows
    # have 64-bit slots, again without listing a partition.
    got = {k: count_hooks_of_size(200, k) for k in range(1, 7)}
    assert got == {
        k: k * sum(partition_count(200 - j * k) for j in range(1, 200 // k + 1)) for k in range(1, 7)
    }
    assert got[3] == 39341717399838


@pytest.mark.parametrize("name", ["by_part", "by_hook", "hooks_total"])
def test_tally_tables_keep_the_mapping_contract(name):
    tally = hook_tally(14, Family.ODD)
    table = getattr(tally, name)
    entries = dict(table)
    assert len(table) == len(entries) == len(list(table)) > 0
    assert all(isinstance(count, int) and count > 0 for count in entries.values())
    assert {entry[1:] for entry in table} == {entry[1:] for entry in entries}
    for entry in list(entries)[:50]:
        key = entry[1:]
        assert table[entry] == entries[entry] and entry in table
        assert table.row(key) == [entries.get((n, *key), 0) for n in range(15)]
        for n in (-1, 15, 40):
            assert table.get((n, *key)) is None and table.get((n, *key), 0) == 0
            assert (n, *key) not in table
        with pytest.raises(KeyError):
            table[(-1, *key)]
    absent = (99,) * (len(next(iter(entries))) - 1)
    assert table.row(absent) == [0] * 15 and table.get((3, *absent), 0) == 0
    # Rows are copies, and the tables take no writes: the tally is shared.
    entry = next(iter(entries))
    table.row(entry[1:])[entry[0]] += 1
    assert table[entry] == entries[entry]
    with pytest.raises(TypeError):
        table[entry] = 1
    with pytest.raises(TypeError):
        del table[entry]
    assert not hasattr(table, "update") and not hasattr(table, "pop")
    assert hook_tally(14, Family.ODD) is tally and dict(table) == entries


def test_tally_every_fixedness_rows_are_read_but_not_iterated():
    # by_hook's key (m, k, None) is a sum of rows: get, [] and `in` read it
    # as any other key, but iterating the table never yields it.
    table = hook_tally(14, Family.ODD).by_hook
    row = table.row((1, 3, None))
    assert row == [sum(table.get((n, 1, 3, h), 0) for h in range(-11, 3)) for n in range(15)]
    assert table[(9, 1, 3, None)] == row[9] > 0 and (9, 1, 3, None) in table
    assert table.get((15, 1, 3, None)) is None and (0, 1, 3, None) not in table
    assert all(None not in entry for entry in table)


def test_witnesses_are_ordered_and_unique():
    w = fixed_hook_witnesses(10, 3, 0)
    assert [p.parts for p in w] == [
        (6, 4), (5, 4, 1), (4, 4, 2), (4, 4, 1, 1), (4, 3, 3), (3, 3, 3, 1),
        (3, 2, 2, 2, 1), (3, 2, 2, 1, 1, 1), (3, 2, 1, 1, 1, 1, 1),
        (3, 1, 1, 1, 1, 1, 1, 1),
    ]


# ---------------------------------------------------------------------------
# Enumerate-and-filter references for the rows of the companion oracles:
# each object is found by listing every partition and testing the companion
# theorem's conditions on it.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def ref_t11_first_weight(a, m):
    return sum(len(t11_qualifying_sizes(parts, m)) for parts in enumerate_parts(a))


@lru_cache(maxsize=None)
def ref_t13_first_count(a, m, k):
    lo, hi = k - m + 1, k + m - 1
    need = range(1, k - m + 1)
    total = 0
    for parts in enumerate_parts(a):
        sizes = set(parts)
        if any(lo <= p <= hi for p in sizes):
            continue
        if all(x in sizes for x in need):
            total += 1
    return total


@lru_cache(maxsize=None)
def ref_t12_profile(t, m):
    counts = Counter()
    for parts in enumerate_parts(t):
        if sum(1 for p in parts if p == m) != 1:
            continue
        if any(m < p < 2 * m for p in parts):
            continue
        counts[sum(1 for p in parts if p >= 2 * m)] += 1
    return tuple(sorted(counts.items()))


def ref_restricted_thm12(n, m, h):
    t = n - m * h
    if t < 0:
        return 0
    return sum(c for g, c in ref_t12_profile(t, m) if g >= max(0, -h))


def ref_colored_thm11(n, m):
    return sum(ref_t11_first_weight(a, m) * partition_count(n - a, m - 1) for a in range(n + 1))


def ref_colored_thm13_stated(nprime, m, k):
    return sum(
        ref_t13_first_count(a, m, k) * partition_count(nprime - a, m - 1)
        for a in range(nprime + 1)
    )


@lru_cache(maxsize=None)
def _partitions_at_least(n, lo):
    """Part tuples of every partition of n into parts >= lo, by listing."""
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(lo, n + 1)
        for rest in _partitions_at_least(n - first, first)
    )


def ref_colored_thm13_derived(nprime, m, k, h):
    # The objects: u first-color parts >= k+m, with u >= k-m-h, then k-m
    # distinct sizes in [1, u+h] and second-color parts <= m-1, weighing
    # nprime + (k-m-h)(k+m) together.
    weight = nprime + (k - m - h) * (k + m)
    total = 0
    for a in range(weight + 1):
        for big in _partitions_at_least(a, k + m):
            if len(big) < k - m - h:
                continue
            for extra in combinations(range(1, len(big) + h + 1), k - m):
                rest = weight - a - sum(extra)
                if rest >= 0:
                    total += sum(1 for _ in enumerate_parts(rest, max_part=m - 1))
    return total


def _assert_companions_match(n, m, h, k):
    assert count_restricted_thm12(n, m, h) == ref_restricted_thm12(n, m, h)
    assert count_colored_thm11(n, m) == ref_colored_thm11(n, m)
    assert count_colored_thm13(n, m, k, h, "stated") == ref_colored_thm13_stated(n, m, k)


def test_companion_dps_match_enumeration():
    for n in range(20):
        for m in range(1, 5):
            # At n + mh every object is a partition of n, and h = -g keeps
            # those with at least g parts >= 2m: h from 3 down to
            # -(n // 2m) - 1 tells every g of the profile of n apart.
            for h in range(-(n // (2 * m)) - 1, 4):
                assert count_restricted_thm12(n + m * h, m, h) == ref_restricted_thm12(
                    n + m * h, m, h
                )
            for k in range(m, 7):
                for h in range(-3, 4):
                    _assert_companions_match(n, m, h, k)


def test_colored_t13_derived_matches_enumeration():
    for m in range(1, 4):
        for k in range(m, m + 3):
            for h in range(-2, 3):
                for nprime in range(16):
                    want = ref_colored_thm13_derived(nprime, m, k, h)
                    assert count_colored_thm13(nprime, m, k, h, variant="derived") == want


@pytest.mark.parametrize("row, count", [
    (lambda N: oracles.colored_t11_row(N, 3), lambda n: count_colored_thm11(n, 3)),
    (lambda N: oracles.restricted_t12_row(N, 2, -2),
     lambda n: count_restricted_thm12(n, 2, -2)),
    (lambda N: oracles.colored_t13_row(N, 2, 4, 1, "stated"),
     lambda n: count_colored_thm13(n, 2, 4, 1, "stated")),
    (lambda N: oracles.colored_t13_row(N, 2, 4, -1, "derived"),
     lambda n: count_colored_thm13(n, 2, 4, -1, "derived")),
    (lambda N: oracles.colored_t13_row(N, 1, 3, 4, "derived"),
     lambda n: count_colored_thm13(n, 1, 3, 4, "derived")),
])
def test_companion_rows_equal_point_counts(row, count):
    # A row of every n <= N holds the point counts, and its length is N + 1.
    assert row(-1) == []
    values = row(40)
    assert len(values) == 41
    assert values == [count(n) for n in range(41)]
    assert count(-1) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 19), st.integers(1, 4), st.integers(-3, 3), st.data())
def test_companion_dps_match_enumeration_hypothesis(n, m, h, data):
    k = data.draw(st.integers(m, 6))
    _assert_companions_match(n, m, h, k)


def test_oracles_import_no_series_code():
    # The companion objects stay defined by the theorems, not by a q-series.
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    for name in imported:
        assert not {"qseries", "genfun"} & set(name.split(".")), name
