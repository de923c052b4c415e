"""The hook census's anchors: references that share no code with the census.

The pinned reports compare the census (``oracles.hook_tally``) with the
series builders, two derivations of this package.  Each anchor here ties
the census to a count it does not compute itself (Bacher and Manivel's
theorem, hooks counted from part sizes alone, the by-part rule) or to one
of its own identities (a row as its sum over fixedness, conjugation).  Each
anchor is one function that takes its bound and ranges and raises
AssertionError at the first row that differs.

The tier-1 tests call them at n <= 60 (Bacher-Manivel at n <= 80, the
by-part rule at orders 30 and 200).  Run as a script, the module checks
every anchor at n <= 399, where the census's slots are 128 bits wide and no
enumeration reaches:

    PYTHONPATH=src python tests/census_anchors.py

It prints one PASS or FAIL line per anchor with its time, keeps going after
a failure, and exits 1 if any anchor failed.  The anchors share one
interpreter, so each family's n <= 399 census is built once.
"""

import sys
import time
import traceback
from itertools import product

from fixedhooks.genfun import gf_by_part
from fixedhooks.oracles import hook_tally
from fixedhooks.partitions import Family, _row
from fixedhooks.qseries import sum_summands


def _same(got, want, *where):
    """Raise AssertionError, naming the first n at which the rows differ."""
    if got != want:
        n = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise AssertionError(f"{where}: rows differ first at n = {n}")


def family_counts(family, max_n):
    """For n <= max_n, c(n), the family's partitions of n, by a coin change
    over the family's part sizes, each size at most once if the family is
    distinct."""
    sizes = range(1, max_n + 1, family.step)
    if not family.distinct:
        return _row(max_n, sizes)
    count = [1] + [0] * max_n
    for size in sizes:
        for x in range(max_n, size - 1, -1):
            count[x] += count[x - size]
    return count


def hooks_by_part_sizes(family, max_n, rules):
    """For n <= max_n, the sum over the (e, excluded) pairs of ``rules(s)``,
    for every family size s, of q^e times the family's partitions without
    the excluded sizes: C, the family's partition series, times 1 - q^t, or
    over 1 + q^t in a distinct family, for each family size t excluded.
    The partitions with at least r parts s are r parts s added to any
    partition of n - rs if the family repeats parts; those with exactly r,
    or with one in a distinct family, are r parts s added to one with no
    part s."""
    sizes = range(1, max_n + 1, family.step)
    count = family_counts(family, max_n)
    want = [0] * (max_n + 1)
    for s in sizes:
        for e, excluded in rules(s):
            row = count[:]
            for t in set(excluded):
                if t in sizes:  # over 1 + q^t upwards, times 1 - q^t downwards
                    for n in range(t, max_n + 1) if family.distinct else range(max_n, t - 1, -1):
                        row[n] -= row[n - t]
            for n in range(e, max_n + 1):
                want[n] += row[n - e]
    return want


def hooks_of_size_one(family, max_n):
    """For n <= max_n, the hooks of size 1 in the family's partitions of n.
    A cell has hook length 1 exactly when it ends its row and its column,
    which is the last cell of the lowest row of each part size; so they
    number the partitions' distinct part sizes."""
    def rules(s):
        yield s, (s,) if family.distinct else ()  # one part s is all a distinct family has
    return hooks_by_part_sizes(family, max_n, rules)


def hooks_of_size_two(family, max_n):
    """For n <= max_n, the hooks of size 2 in the family's partitions of n.
    A cell has hook 2 with arm 1 and leg 0 once for each part size s >= 2
    that a partition has while it lacks s - 1, and with arm 0 and leg 1 once
    for each part size that repeats."""
    def rules(s):
        own = (s,) if family.distinct else ()
        if s >= 2:
            yield s, own + (s - 1,)
        if not family.distinct:
            yield 2 * s, ()
    return hooks_by_part_sizes(family, max_n, rules)


def hooks_of_size_three(family, max_n):
    """For n <= max_n, the hooks of size 3 in the family's partitions of n.
    A cell has hook 3 with arm 2 and leg 0 once for each part size s >= 3
    that a partition has while it lacks s - 1 and s - 2; with arm 1 and leg
    1 once for each size s >= 2 that repeats while s - 1 is absent, and once
    for each size s >= 2 present while s - 1 occurs exactly once; and with
    arm 0 and leg 2 once for each size present at least three times."""
    sizes = range(1, max_n + 1, family.step)

    def rules(s):
        own = (s,) if family.distinct else ()
        if s >= 3:
            yield s, own + (s - 1, s - 2)
        if s >= 2 and not family.distinct:
            yield 2 * s, (s - 1,)
        if s - 1 in sizes:
            yield 2 * s - 1, own + (s - 1,)
        if not family.distinct:
            yield 3 * s, ()
    return hooks_by_part_sizes(family, max_n, rules)


def hooks_of_size_four(family, max_n):
    """For n <= max_n, the hooks of size 4 in the family's partitions of n.
    A cell has hook 4 with arm 3 and leg 0 once for each part size s >= 4
    that a partition has while it lacks s - 1, s - 2 and s - 3.  With arm 2
    and leg 1 once for each size s >= 3 that repeats while s - 1 and s - 2
    are absent, and once for each size s >= 3 present above exactly one
    part t in {s - 1, s - 2} and no other.  With arm 1 and leg 2, for
    s >= 2, once for each size s present three times or more while s - 1 is
    absent, once for each s repeated above exactly one s - 1, and once for
    each s present above exactly two.  With arm 0 and leg 3 once for each
    size present four times or more."""
    sizes = range(1, max_n + 1, family.step)

    def rules(s):
        own = (s,) if family.distinct else ()
        if s >= 4:
            yield s, own + (s - 1, s - 2, s - 3)
        if s >= 3:
            if not family.distinct:
                yield 2 * s, (s - 1, s - 2)
            for t in (s - 1, s - 2):
                if t in sizes:
                    yield s + t, own + (s - 1, s - 2)
        if s >= 2 and not family.distinct:
            yield 3 * s, (s - 1,)
            if s - 1 in sizes:
                yield 3 * s - 1, (s - 1,)
                yield 3 * s - 2, (s - 1,)
        if not family.distinct:
            yield 4 * s, ()
    return hooks_by_part_sizes(family, max_n, rules)


HOOKS_OF_SIZE = {1: hooks_of_size_one, 2: hooks_of_size_two, 3: hooks_of_size_three,
                 4: hooks_of_size_four}


def check_hooks_of_size(k, max_n, families):
    """The census's hooks of size k <= 4 equal ``HOOKS_OF_SIZE[k]``, which
    counts them from part sizes alone, in each family at n <= max_n (cf.
    Ballantine, Burson, Craig, Folsom and Wen, "Hook length biases and
    general linear partition inequalities", Res. Math. Sci., on small hooks
    in odd and distinct partitions).  In the all family Bacher-Manivel also
    covers them; in the odd and distinct families this is the only outside
    count."""
    for family in families:
        _same(hook_tally(max_n, family).hooks_total.row((k,)), HOOKS_OF_SIZE[k](family, max_n),
              family, k)


def check_bacher_manivel(max_n, sizes):
    """Bacher and Manivel, "Hooks and powers of parts in partitions" (Sem.
    Lothar. Combin. 47, B47d): over all partitions of n, the hooks of size
    k number k times the parts equal to k, k * sum_{j>=1} p(n - jk); this
    ties the all family's census to p(n) alone at every n <= max_n, for
    each k in sizes."""
    p = family_counts(Family.ALL, max_n)
    hooks_total = hook_tally(max_n).hooks_total
    for k in sizes:
        want = [k * sum(p[n - j * k] for j in range(1, n // k + 1)) for n in range(max_n + 1)]
        _same(hooks_total.row((k,)), want, k)


def check_every_fixedness_rows(max_n, families, pairs):
    """by_hook's row (m, k, None) counts the hooks of size k in column m
    with any number of rows above, through the census's _above sums; each
    (m, k, h) row fixes that number at k - h - 1.  A hook of size k in row
    i is (k - i)-fixed, and a partition of n <= max_n has at most max_n
    rows, so h in [k - max_n, k) holds every hook.  The cell's row and the
    k - h - 1 rows above it each hold a part >= m, so m (k - h) <= n: the
    rows below h = k - max_n // m are summed too, and must be empty.  The
    check runs in each family for each (m, k) of pairs.

    _above sums the rows above a part p, each at least p + gap, up to
    j = (max_n - p) // (p + gap) of them, the most that fit beside the
    part.  In the all and odd families those j rows weigh j p at least, so
    the last is reached at n = (j + 1) p <= max_n, and a sum that stops one
    row short fails every pair whose column holds a part p: all 84 pairs of
    the tier-1 test at n <= 60 in the all family, 62 in the odd.  In the
    distinct families the j rows above weigh at least j (p + gap) +
    gap C(j, 2), which fits beside p only at some pairs: 31 and 22 of those
    84 (distinct, odd-distinct), and at n <= 399 only m = 1, k = 199."""
    pairs = list(pairs)
    for family in families:
        by_hook = hook_tally(max_n, family).by_hook
        for m, k in pairs:
            rows = [by_hook.row((m, k, h)) for h in range(k - max_n, k)]
            _same([sum(col) for col in zip(*rows)], by_hook.row((m, k, None)), family, m, k)


def check_by_part_rule(order, families, cases):
    """gf_by_part reads a family only through its step and distinctness;
    its series at each (m, k, h) of cases must equal the census's by_part
    row below the order in each family, odd-and-distinct included, which
    no catalog row covers."""
    for family in families:
        by_part = hook_tally(order - 1, family).by_part
        for m, k, h in cases:
            got = sum_summands(order, gf_by_part(family, m, k, h, order)).coefficients(0, order)
            _same(got, by_part.row((m, k, h)), family, m, k, h)


def check_conjugate_rows(max_n, columns, sizes):
    """Conjugation carries a hook of size k in column m and row i, which is
    (k - i)-fixed, to one in column i and row m, so the all family's by_hook
    rows (m, k, k - i) and (i, k, k - m) are equal for m, i in columns and k
    in sizes.  The odd and distinct families are not closed under
    conjugation.  It is a consistency check of the census, not an outside
    count: it fails when _cell masks its product one slot short, but a fault
    that changes both sides alike, such as every mask in _Census.fits one
    slot short or a narrowed l range in by_hook, passes it."""
    by_hook = hook_tally(max_n, Family.ALL).by_hook
    for m in columns:
        for i in columns:
            for k in sizes:
                _same(by_hook.row((m, k, k - i)), by_hook.row((i, k, k - m)), m, i, k)


def run_checks(checks, what):
    """Run each of ``checks``, a dict of name to callable, keep going after
    a failure, print one PASS or FAIL line per check with its time and a
    closing count of ``what`` passed, and return 1 if any failed, else 0."""
    failed = 0
    start = time.perf_counter()
    for name, check in checks.items():
        began = time.perf_counter()
        try:
            check()
            verdict = "PASS"
        except Exception:
            traceback.print_exc()
            verdict = "FAIL"
            failed += 1
        print(f"{verdict}  {name}  ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{len(checks) - failed} of {len(checks)} {what} passed"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


def main():
    N = 399
    return run_checks({
        "Bacher-Manivel, k in 1, 2, 3, 5, 8, 13":
            lambda: check_bacher_manivel(N, (1, 2, 3, 5, 8, 13)),
        "hooks of size 1 from part sizes, all four families":
            lambda: check_hooks_of_size(1, N, Family),
        "every-fixedness rows as their sum over h, m <= 3, k <= 6":
            lambda: check_every_fixedness_rows(N, Family, product(range(1, 4), range(1, 7))),
        "every-fixedness rows where the rows above reach n = 399: distinct, m = 1, k = 199":
            lambda: check_every_fixedness_rows(N, (Family.DISTINCT,), [(1, 199)]),
        "by-part rule at N = 400, m <= 3, m <= k <= 7, |h| <= 2":
            lambda: check_by_part_rule(N + 1, Family, [
                (m, k, h) for m in range(1, 4) for k in range(m, 8) for h in range(-2, 3)]),
        "hooks of size 2 from part sizes, all four families":
            lambda: check_hooks_of_size(2, N, Family),
        "hooks of size 3 from part sizes, all four families":
            lambda: check_hooks_of_size(3, N, Family),
        "conjugate by_hook rows, m, i <= 5, k <= 10":
            lambda: check_conjugate_rows(N, range(1, 6), range(1, 11)),
        "hooks of size 4 from part sizes, all four families":
            lambda: check_hooks_of_size(4, N, Family),
    }, f"census anchors at n <= {N}")


if __name__ == "__main__":
    sys.exit(main())
