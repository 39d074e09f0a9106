import bisect
import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecount import arith, counts
from conecount.arith import build_arith_tables, build_r_table
from conecount.errors import ResourceLimitError
from conftest import r_row


def test_m_naive_examples():
    assert counts.m_naive(1, 1) == 0
    assert counts.m_naive(1, 2) == 48
    assert counts.m_naive(3, 7) == counts.m_naive(7, 3)


def test_m_fast_examples():
    assert counts.m_fast(1, 1) == 0
    assert counts.m_fast(1, 2) == 48
    assert counts.m_fast(0, 5) == 0


def test_m_fast_matches_pure_python():
    # quintuple loop, no vectorisation shared with the library paths
    def m_py(X, Y):
        cnt = 0
        for x0 in range(-X, X + 1):
            if not x0:
                continue
            for x1 in range(-X, X + 1):
                if not x1:
                    continue
                for x2 in range(-X, X + 1):
                    if not x2:
                        continue
                    for y0 in range(-Y, Y + 1):
                        if not y0:
                            continue
                        for y1 in range(-Y, Y + 1):
                            if not y1:
                                continue
                            s = x0 * y0 + x1 * y1
                            if s % x2 == 0:
                                y2 = -s // x2
                                if y2 and abs(y2) <= Y:
                                    cnt += 1
        return cnt

    assert counts.m_fast(3, 3) == m_py(3, 3) == 2016
    assert counts.m_fast(2, 5) == m_py(2, 5) == 2688


@given(st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=30, deadline=None)
def test_m_fast_structure(X, Y):
    m = counts.m_fast(X, Y)
    assert m % 16 == 0
    assert m == counts.m_fast(Y, X)


def m_literal(X, Y):
    """M(X, Y) from the coefficient identity with the literal integer convolution."""
    pos = r_row(X, Y)[1:]
    return 6 * int(np.dot(np.convolve(pos, pos)[: X * Y - 1], pos[1:]))


@st.composite
def boxes(draw):
    """Boxes with XY <= 2e4, from square to 1 x 20000."""
    X = draw(st.integers(1, 400))
    return X, draw(st.integers(1, 2 * 10**4 // X))


@given(boxes())
@settings(max_examples=25, deadline=None)
def test_m_fast_matches_literal_convolution(box):
    assert counts.m_fast(*box) == m_literal(*box)


def test_square_guards_raise_instead_of_rounding(monkeypatch):
    # a row of 10^7: P = ||v||_1 ||v||_2^2 = 1e27, so the rounding bound is far above 1/2
    rows = np.zeros((1, 1001), dtype=np.int64)
    rows[0, 1:] = 10**7
    with pytest.raises(FloatingPointError):
        counts._triple_sums(rows)
    # peak^2 times the width passes 2^63, so the int64 norms could wrap
    with pytest.raises(OverflowError):
        counts._triple_sums(np.array([[0, 2**40, 1], [0, 3, 4]]))
    # the bound is checked before any transform runs; a row of 7s is summed exactly
    with monkeypatch.context() as mp:
        mp.setattr(np.fft, "rfft", lambda *a, **k: pytest.fail("transformed a refused row"))
        with pytest.raises(FloatingPointError):
            counts._triple_sums(rows)
    v = np.full(1000, 7, dtype=np.int64)
    literal = int(np.dot(np.convolve(v, v)[: v.size - 1], v[1:]))  # sum over a + b = c <= 1000
    assert counts._triple_sums(np.concatenate([[0], v])[None]) == [literal]


@st.composite
def box_lists(draw):
    """Boxes with XY < 6100, mixed in size and orientation, plus one with
    XY > _BATCH_POINTS / 4, which fills a batch alone."""
    areas = draw(st.lists(st.integers(1, 6000), min_size=2, max_size=12)) + [draw(st.integers(8200, 9000))]
    out = []
    for area in areas:
        X = draw(st.integers(1, math.isqrt(area)))
        Y = -(-area // X)  # rounded up: XY >= area, so the last box keeps XY >= 8200
        out.append((X, Y) if draw(st.booleans()) else (Y, X))
    return out


@given(box_lists())
@settings(max_examples=20, deadline=None)
def test_batched_boxes_match_literal(boxes):
    batches = []
    batched = counts._batches

    def recorded(todo):
        for batch in batched(todo):
            batches.append(batch)
            yield batch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counts, "_BOXES", {})
        mp.setattr(counts, "_batches", recorded)
        counts._count_boxes(boxes)
        cached = dict(counts._BOXES)
    assert len(batches) >= 2
    assert sorted(cached) == sorted(box for batch in batches for box in batch)
    for X, Y in boxes:
        assert cached[min(X, Y), max(X, Y)] == m_literal(X, Y)
    for batch in batches:
        assert len(batch) == 1 or len(batch) * 2 * max(X * Y for X, Y in batch) <= counts._BATCH_POINTS


def test_batch_with_an_over_norm_row_caches_nothing(monkeypatch):
    # one r row scaled by 10^7 (its entries stay below 2^31) puts its
    # norm, so the batch's, far past the bound
    def scaled(X, Y, out):
        build_r_table(X, Y, out=out)
        if (X, Y) == (5, 7):
            out *= 10**7

    boxes = [(3, 4), (5, 7), (6, 6)]
    monkeypatch.setattr(counts, "_BOXES", {})
    monkeypatch.setattr(counts, "build_r_table", scaled)
    with pytest.raises(FloatingPointError):
        counts._count_boxes(boxes)
    assert counts._BOXES == {}
    monkeypatch.setattr(counts, "build_r_table", build_r_table)
    assert counts._count_boxes(boxes) == [m_literal(*box) for box in boxes]
    assert counts._BOXES == {box: m_literal(*box) for box in boxes}


def test_count_boxes_returns_counts_in_order():
    # zero sides count 0, either orientation reads one cache entry, repeats repeat
    boxes = [(7, 3), (0, 9), (3, 7), (4, 0), (2, 5), (7, 3)]
    assert counts._count_boxes(boxes) == [m_literal(3, 7), 0, m_literal(3, 7), 0, m_literal(2, 5), m_literal(3, 7)]


def test_box_cache_eviction_keeps_counts_exact(monkeypatch):
    # a batch that empties the cache must not lose the counts of the boxes
    # read before it or counted in earlier batches of the same call
    monkeypatch.setattr(counts, "_BOXES", {})
    monkeypatch.setattr(counts, "_BOXES_MAX", 10)
    monkeypatch.setattr(counts, "_mprime_z", functools.lru_cache(maxsize=None)(counts._mprime_z.__wrapped__))
    assert counts.mprime(10**6) == 529846752
    assert counts.n0_times4(10**6) == 245390400


def test_smooth_length_is_the_least_smooth_number():
    # the least 2^a 3^b 5^c >= max(n, 2), inside the first table (below
    # 2^20) and past it
    smooth = sorted(2**a * 3**b * 5**c for a in range(42) for b in range(27) for c in range(19))
    for n in list(range(5000)) + [2**19 - 1, 2**20 - 1, 2**20, 2**20 + 1, 3**13 + 1, 5**9 - 1, 10**9, 2**40]:
        assert counts._smooth_length(n) == smooth[bisect.bisect_left(smooth, max(n, 2))], n


def test_near_overflow_row_raises(monkeypatch):
    # next to an r-table row, a row of 10^5 (P = 1e21 >= 2^52) stops the batch before any transform
    rows = np.zeros((2, 1201), dtype=np.int64)
    build_r_table(30, 40, out=rows[0, 1:])
    rows[1, 1:1001] = 10**5
    with monkeypatch.context() as mp:
        mp.setattr(np.fft, "rfft", lambda *a, **k: pytest.fail("transformed a refused batch"))
        with pytest.raises(FloatingPointError):
            counts._triple_sums(rows)
    assert counts._triple_sums(rows[:1]) == [m_literal(30, 40) // 6]


def m_bigint(X, Y):
    """M(X, Y) with r*r from one Python big-int square (Kronecker
    substitution): r(0..XY) packed into 32-bit slots, whose coefficients
    (r*r)(c) <= ||r||_2^2 < 2^32 then carry into no neighbour."""
    r = r_row(X, Y)
    assert int(np.dot(r, r)) < 2**32
    packed = int.from_bytes(r.astype("<u4").tobytes(), "little")
    square = np.frombuffer((packed * packed).to_bytes(8 * r.size, "little"), dtype="<u4")
    return 6 * sum(map(operator.mul, square[: r.size].tolist(), r.tolist()))


def test_m_fast_matches_bigint_square_at_the_cap_tier():
    assert m_bigint(30, 40) == m_literal(30, 40)
    assert counts.m_fast(442, 452) == m_bigint(442, 452) == 2475013541952  # the largest rounding bound at XY <= 2e5


@pytest.mark.parametrize("box, count", [
    ((447, 447), 2470138529664),
    ((400, 500), 2481187763184),
    ((1, 200000), 959995200000),
    ((64, 3125), 2392831133280),
    ((141, 1418), 2448172029888),
])
def test_m_fast_pinned_at_the_cap_tier(box, count):
    # values of the square-and-invert FFT path, confirmed by m_bigint
    assert counts.m_fast(*box) == count


def test_m_budgets():
    with pytest.raises(ResourceLimitError):
        counts.m_naive(200, 5000)
    with pytest.raises(ResourceLimitError):
        counts.m_naive(400, 1)  # thin: the kernel would visit ~2e7 cells
    # wide: few cells, taken in tiles; M(1, Y) = 24 Y (Y - 1), as m_fast(1, 200000) is pinned below
    assert counts.m_naive(1, 10**6) == 24 * 10**6 * (10**6 - 1)
    with pytest.raises(ResourceLimitError):
        counts.m_fast(1000, 1000)


def test_box_count_validates():
    bc = counts.box_count(4, 7)
    assert bc.count == counts.m_fast(4, 7)
    with pytest.raises(ValueError):
        counts.BoxCount(X=1, Y=1, count=8)


def test_p_count():
    assert counts.p_count(1) == 245
    for x in (1, 2, 3):
        assert counts.p_count(x) == counts.p_count_tiny(x)
    for x in (1, 2, 4, 8, 41):
        assert counts.p_count(x) >= counts.m_fast(x, x)
    assert counts.p_count(2.0) == counts.p_count(2)  # real bounds are floored, as in m_naive
    assert counts.p_count(3.7) == counts.p_count(3)
    with pytest.raises(ValueError):
        counts.p_count(0.9)
    with pytest.raises(ResourceLimitError):
        counts.p_count(88)  # the box kernel's cap: (X+1)^4 / 6 > 10^7 cells


def test_mprime_small_values():
    assert counts.mprime(1) == 0
    assert counts.mprime(3) == 0
    assert counts.mprime(4) == 96  # the (1,1,1)/(1,1,-2) orbit and friends
    assert counts.mprime(4) == counts.mprime_naive(4)


@pytest.mark.parametrize("B", [1, 2, 4, 16, 100, 1234])
def test_height_fast_paths_match_enumeration(B):
    assert counts.mprime(B) == counts.mprime_naive(B)
    assert counts.n0_times4(B) == counts.n0_times4_naive(B)
    n4, w = counts.n_w_naive(B)
    h = counts.height_counts(B)
    assert h.n_times4 == n4
    assert (h.W1, h.W2, h.W3, h.W4) == w


def test_mprime_blocks_match_shell_loop():
    for z in range(1, 401):
        shells = sum(counts.m_fast(k, z // k) - counts.m_fast(k - 1, z // k) for k in range(1, z + 1))
        assert counts._mprime_z.__wrapped__(z) == shells


@pytest.mark.parametrize("z", [1, 2, 3, 10, 99, 400, 12345, 10**5])
def test_mprime_block_sums_call_count(z, monkeypatch):
    # only the boxes asked for matter here, not their values: nothing is counted
    requested, reads = [], []

    def count_boxes(boxes):
        requested.append(list(boxes))
        return [reads.append(box) or 0 for box in requested[-1]]

    monkeypatch.setattr(counts, "_count_boxes", count_boxes)
    monkeypatch.setattr(counts, "m_fast", lambda X, Y: pytest.fail("M' reads a box outside its batch"))
    counts._mprime_z.__wrapped__(z)
    s = math.isqrt(z)
    hyperbola = [(k, z // k) for k in range(1, s + 1)] + [(k - 1, z // k) for k in range(1, s + 1)] + [(s, s)]
    assert len(requested) == 1  # one batch call, every count read from its result
    assert sorted(requested[0]) == sorted(reads) == sorted(hyperbola)
    assert len(reads) == 2 * s + 1


def test_mprime_traced_peak(traced_peak, monkeypatch):
    # cold box cache, numpy.fft already imported: counting one FFT square
    # per box peaked at 0.80 MB, and the batched transforms must add no
    # memory cliff
    np.fft.rfft(np.ones(4))  # imports numpy.fft outside the trace
    monkeypatch.setattr(counts, "_BOXES", {})
    assert traced_peak(lambda: counts._mprime_z.__wrapped__(math.isqrt(4 * 10**8))) < 0.81


def test_blocks_match_literal_loop():
    for ns in [(n,) for n in range(1, 301)] + [(a, b) for a in range(1, 301, 7) for b in range(1, 301, 11)]:
        runs = list(zip(*counts._blocks(*ns)))
        assert [d for lo, hi in runs for d in range(lo, hi + 1)] == list(range(1, min(ns) + 1)), ns
        for lo, hi in runs:
            assert all(n // d == n // lo for n in ns for d in range(lo, hi + 1)), ns
            assert hi == min(ns) or any(n // (hi + 1) != n // lo for n in ns), ns  # runs are maximal


def test_moebius_matches_literal_sum():
    mu = build_arith_tables(300).mu

    def f(a, b=1):
        return a * a + 3 * b

    for ns in [(1,), (2,), (17,), (300,), (5, 9), (100, 37), (300, 299)]:
        literal = sum(int(mu[d]) * f(*(n // d for n in ns)) for d in range(1, min(ns) + 1))
        assert counts._moebius(f, *ns) == literal, ns


def test_height_counts_pinned_at_1e8():
    h = counts.height_counts(10**8)
    assert (h.mprime, h.n0_times4, h.W1, h.W2, h.W3) == (80939740032, 35121743520, 10071838368, 146088, 2918158608)
    assert counts.w_counts(10**10) == (1011620526432, 1459368, 291806472336, 24)


def test_height_counts_pinned_at_1e9():
    h = counts.height_counts(10**9)
    assert (h.mprime, h.n0_times4, h.n_times4) == (952271852352, 404606655264, 534788179632)


def test_mu_square_prefix_matches_dirichlet_loop():
    mu = build_arith_tables(5000).mu
    g = [0] * 5001
    for a in range(1, 5001):
        for b in range(1, 5000 // a + 1):
            g[a * b] += int(mu[a]) * int(mu[b])
    assert arith.arith_table(5000).mu_square[:5001].tolist() == list(itertools.accumulate(g))


def test_n0_times4_matches_nested_moebius():
    # sum_n mu(n) sum_m mu(m) M'(z // (nm)): a Moebius block sum over m at each z // n
    for z in range(1, 2001):
        nested = counts._moebius(lambda y: counts._moebius(counts._mprime_z, y), z)
        assert counts.n0_times4(z * z) == nested, z


def test_mprime_nondecreasing():
    vals = [counts.mprime(b) for b in range(1, 400)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_n_times4_first_heights():
    assert counts.n_times4(1) == 192
    assert counts.n_times4(2) == 192  # no new heights between 1 and 2
    assert counts.n_times4(3) == 192


def test_w_counts_at_1():
    assert counts.w_counts(1) == (96, 24, 48, 24)


@given(st.integers(1, 20000))
@settings(max_examples=40, deadline=None)
def test_counts_depend_on_isqrt_only(B):
    # the height |x||y| is an integer, so everything is a function of isqrt(B)
    z = math.isqrt(B)
    assert counts.mprime(B) == counts.mprime(z * z)
    assert counts.n_times4(B) == counts.n_times4(z * z)


def test_pair_oracle_budget(monkeypatch):
    # the box kernel's cap on an upper bound of the split's own cells (every
    # block of _pair_columns): Z = 2529 is the last Z it admits, 9,994,376
    # cells against the 8,423,601 it walks (0.56 s), refused past it before
    # any sieve; the box (isqrt(Z), Z) stopped at Z = 1285
    assert counts.pair_zero_histogram(6_400_899)[0, 0] == counts.mprime(6_400_899)
    monkeypatch.setattr(counts, "arith_table", lambda n: pytest.fail("a sieve was built"))
    for B in (6_400_900, 10**7, 10**30):
        with pytest.raises(ResourceLimitError, match="pair oracle cells"):
            counts.pair_zero_histogram(B)


@pytest.mark.parametrize("count,B", [
    (counts.mprime, (counts.M_FAST_MAX_XY + 1) ** 2),
    (counts.mprime, 10**18),  # its 2s + 1 box list traced about 10 MB
    (counts.mprime, 10**30),  # its box list ran the process out of memory
    (counts.n0_times4, 10**13),  # built a 2^22 sieve first (27.5 s)
    (counts.height_counts, 10**13),
], ids=["mprime-edge", "mprime-1e18", "mprime-1e30", "n0_times4-1e13", "height_counts-1e13"])
def test_height_counts_past_the_box_cap_refused_before_any_work(count, B, monkeypatch, traced_peak):
    # the widest box of M'(z) is (1, z), with XY = z, so a z past the box
    # cap is refused before any sieve or box list is built
    monkeypatch.setattr(counts, "arith_table", lambda n: pytest.fail("a sieve was built"))

    def refused():
        with pytest.raises(ResourceLimitError, match=rf"capped at X\*Y <= {counts.M_FAST_MAX_XY}$"):
            count(B)

    assert traced_peak(refused) < 1.0


@given(st.integers(1, 12), st.integers(1, 300))
@settings(max_examples=25, deadline=None)
def test_m_naive_matches_m_fast_on_thin_boxes(X, Y):
    assert counts.m_naive(X, Y) == counts.m_fast(X, Y)


@functools.cache
def pair_tables_literal(Z):
    """The (2, 5) pair table at every height bound h <= Z, by a literal loop
    over x and y with gcd on both vectors (no numpy, no symmetry)."""
    by_height = [[[0] * 5 for _ in range(2)] for _ in range(Z + 1)]
    for x in itertools.product(range(-Z, Z + 1), repeat=3):
        nx = max(map(abs, x))
        if not nx:
            continue
        for y in itertools.product(range(-(Z // nx), Z // nx + 1), repeat=3):
            ny = max(map(abs, y))
            if ny and x[0] * y[0] + x[1] * y[1] + x[2] * y[2] == 0:
                zeros = (x + y).count(0)
                cell = by_height[nx * ny]
                cell[0][zeros] += 1
                if math.gcd(*x) == 1 and math.gcd(*y) == 1:
                    cell[1][zeros] += 1
    tables = [by_height[0]]
    for cell in by_height[1:]:
        tables.append([[a + b for a, b in zip(*rows)] for rows in zip(tables[-1], cell)])
    return tables


def test_pair_table_matches_literal_loop():
    tables = pair_tables_literal(8)
    for B in range(1, 65):
        assert counts.pair_zero_histogram(B).tolist() == tables[math.isqrt(B)], B


def test_pair_table_is_the_full_shell_walk():
    # the hyperbola split gives the table of the walk over every shell
    # k <= Z at |y| <= Z // k, its runs of one Z // k sharing their columns
    for Z in [*range(1, 61), 100]:
        mertens = arith.arith_table(Z).mertens
        runs = ((range(lo, hi + 1), counts._pair_columns(Z // lo, mertens)) for lo, hi in zip(*counts._blocks(Z)))
        assert counts._pair_table(Z).tolist() == counts._kernel_hist(runs, Z, primitive=True).T.tolist(), Z


def test_pair_oracles_walk_the_shells_once(monkeypatch):
    # the three oracles at one B walk the split once, through _pair_table's
    # cache: each row x = (x0, x1, k) of the shells k <= isqrt(Z) twice in
    # all, once as a shell and once in the box
    B = 1500
    s = math.isqrt(math.isqrt(B))
    walked = []
    line_counts = counts._line_counts

    def recorded(x0, x1, k, inv, *columns):
        walked.extend(zip(x0.tolist(), x1.tolist(), k.tolist()))
        return line_counts(x0, x1, k, inv, *columns)

    counts._pair_table.cache_clear()
    monkeypatch.setattr(counts, "_line_counts", recorded)
    for oracle in (counts.mprime_naive, counts.n0_times4_naive, counts.n_w_naive):
        oracle(B)
    rows = [(x0, x1, k) for x0 in range(s + 1) for x1 in range(x0, s + 1) for k in range(max(x1, 1), s + 1)]
    assert len(rows) == (s + 1) * (s + 2) * (s + 3) // 6 - 1
    assert sorted(walked) == sorted(rows * 2)


def _oracle_values():
    counts._pair_table.cache_clear()
    return ([counts.m_naive(X, Y) for X in range(1, 13) for Y in range(1, 31)],
            [counts.p_count(X) for X in range(1, 13)],
            [counts.pair_zero_histogram(B).tolist() for B in range(1, 2001)])


@pytest.mark.parametrize("cells", [512, 1 << 40], ids=["tiles_cut_shells", "one_tile_per_group"])
def test_kernel_blocks_leave_the_counts(cells, monkeypatch):
    # small tiles that cut most shells into slices of rows, and every group
    # one tile: the same counts as the default tiles, and the literal loop's
    # pair tables
    default = _oracle_values()
    monkeypatch.setattr(counts, "_BLOCK_CELLS", cells)
    assert _oracle_values() == default
    tables = pair_tables_literal(8)
    counts._pair_table.cache_clear()
    for B in range(1, 65):
        assert counts.pair_zero_histogram(B).tolist() == tables[math.isqrt(B)], B


def test_kernel_passes_fit_in_a_tile(monkeypatch):
    # columns that fit in a tile keep every _line_counts pass within
    # _BLOCK_CELLS cells, a group whose rows fit is one pass, and a box wider
    # than a tile takes its y0 in slices of one tile each
    passes = []
    line_counts = counts._line_counts

    def recorded(x0, x1, k, inv, y0, ym, wy):
        passes.append((len(x0) * len(y0), int(y0[0])))
        return line_counts(x0, x1, k, inv, y0, ym, wy)

    monkeypatch.setattr(counts, "_line_counts", recorded)
    counts._pair_table.cache_clear()
    for run in (lambda: counts.m_naive(60, 60), lambda: counts.m_naive(3, 5000), lambda: counts.m_naive(19, 300),
                lambda: counts.p_count(30), lambda: counts.pair_zero_histogram(10**4)):
        passes.clear()
        run()
        assert len(passes) > 1 and max(cells for cells, _ in passes) <= counts._BLOCK_CELLS
    for run in (lambda: counts.m_naive(3, 3), lambda: counts.p_count(12)):
        passes.clear()
        run()
        assert len(passes) == 1
    passes.clear()
    assert counts.m_naive(2, 50000) == counts.m_fast(2, 50000)
    assert sorted({start for _, start in passes}) == list(range(0, 50001, counts._BLOCK_CELLS))  # seven tiles
    assert max(cells for cells, _ in passes) <= counts._BLOCK_CELLS


@pytest.mark.parametrize("run, measured_mb", [
    (lambda: counts.m_naive(40, 40), 0.84),
    (lambda: counts.m_naive(60, 9), 0.96),
    (lambda: counts.m_naive(3, 5000), 0.60),
    (lambda: counts._pair_table.__wrapped__(100), 0.75),
    (lambda: counts.m_naive(60, 60), 0.95),
    (lambda: counts.m_naive(1, 10**6), 0.97),
    (lambda: counts._pair_table.__wrapped__(316), 0.83),
], ids=["m_naive(40,40)", "m_naive(60,9)", "m_naive(3,5000)", "pair_zero_histogram(10**4)",
        "m_naive(60,60)", "m_naive(1,10**6)", "pair_zero_histogram(10**5)"])
def test_oracle_kernel_traced_peak(traced_peak, run, measured_mb):
    # measured peaks plus 0.3 MB; every run counts in tiles of _BLOCK_CELLS
    # cells, whose temporaries do not grow with the box
    counts.m_naive(2, 2)
    arith.arith_table(316)
    assert traced_peak(run) < measured_mb + 0.3
