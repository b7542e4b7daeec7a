import tracemalloc

import numpy as np
import pytest

from radclust.geometry import BinaryMatrix
from radclust.matpower import (
    PowerPlan,
    bool_multiply,
    make_power_plan,
    power_fast,
    power_naive_oracle,
)

from helpers import bfs_hop_distances, binarized_int_power, chain_bits, random_adjacency


# ---------------------------------------------------------------------------
# BinaryMatrix basics
# ---------------------------------------------------------------------------


def test_binary_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        BinaryMatrix(np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        BinaryMatrix(np.ones((0, 0), dtype=bool))
    with pytest.raises(ValueError):
        BinaryMatrix(np.ones(4, dtype=bool))


def test_binary_matrix_is_read_only():
    m = BinaryMatrix(np.eye(3, dtype=bool))
    with pytest.raises(ValueError):
        m.bits[0, 1] = True


def test_identity_factory():
    eye = np.eye(2, dtype=bool)
    assert np.array_equal(BinaryMatrix(eye).bits, eye)


# ---------------------------------------------------------------------------
# Boolean product
# ---------------------------------------------------------------------------


def test_multiply_by_identity_is_noop():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = BinaryMatrix(rng.random((9, 9)) < 0.3)
        eye = BinaryMatrix(np.eye(9, dtype=bool))
        assert bool_multiply(a, eye) == a
        assert bool_multiply(eye, a) == a


def test_chain_square_matches_integer_oracle():
    a = chain_bits(7)
    got = bool_multiply(BinaryMatrix(a), BinaryMatrix(a)).bits
    expected = (a.astype(np.int64) @ a.astype(np.int64)) > 0
    assert np.array_equal(got, expected)
    # and the expected support is |i - j| <= 2
    for i in range(7):
        for j in range(7):
            assert got[i, j] == (abs(i - j) <= 2)


def test_multiply_matches_integer_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 20))
        a = rng.random((n, n)) < 0.4
        b = rng.random((n, n)) < 0.4
        got = bool_multiply(BinaryMatrix(a), BinaryMatrix(b)).bits
        expected = (a.astype(np.int64) @ b.astype(np.int64)) > 0
        assert np.array_equal(got, expected)


def test_all_ones_is_absorbing():
    ones = BinaryMatrix(np.ones((5, 5), dtype=bool))
    assert bool_multiply(ones, ones) == ones


def test_bool_multiply_counts_past_a_narrow_integer():
    # Every entry of the square sums 256 ones: exact in float32, which holds
    # integers to 2**24, but 0 in an 8-bit integer product.
    ones = BinaryMatrix(np.ones((256, 256), dtype=bool))
    assert bool_multiply(ones, ones) == ones


def test_multiply_rejects_size_mismatch():
    with pytest.raises(ValueError):
        bool_multiply(
            BinaryMatrix(np.eye(2, dtype=bool)), BinaryMatrix(np.eye(3, dtype=bool))
        )


# ---------------------------------------------------------------------------
# Power plans
# ---------------------------------------------------------------------------


def test_plan_seven_points():
    plan = make_power_plan(7)
    assert plan == PowerPlan(n=7, k=3, m=2, naive_mults=2)


def test_plan_two_points():
    plan = make_power_plan(2)
    assert (plan.k, plan.m, plan.naive_mults) == (1, 0, 0)


def test_plan_thousand_points():
    plan = make_power_plan(1000)
    assert plan.k == 500
    assert plan.m == 9
    assert plan.naive_mults == 499


@pytest.mark.parametrize("n", [0, -3])
def test_plan_rejects_non_positive_n(n):
    with pytest.raises(ValueError):
        make_power_plan(n)


def test_plan_invariants_across_sizes():
    for n in range(1, 401):
        plan = make_power_plan(n)
        assert plan.k == n // 2
        assert plan.naive_mults == max(plan.k - 1, 0)
        if plan.k >= 1:
            assert 2**plan.m >= plan.k
            if plan.m > 0:
                # m is the smallest such exponent
                assert 2 ** (plan.m - 1) < plan.k
        if n >= 4:
            assert plan.m <= plan.naive_mults


# ---------------------------------------------------------------------------
# Fast power (repeated squaring)
# ---------------------------------------------------------------------------


def test_fast_power_chain_reaches_four_hops():
    # n = 10 -> k = 5 -> m = 3 -> reach 8; use n = 9: k = 4, m = 2, reach 4.
    a = chain_bits(9)
    g, count = power_fast(BinaryMatrix(a))
    assert count == 2
    bits = g.bits
    assert bits[0, 4]
    assert not bits[0, 5]
    dist = bfs_hop_distances(a)
    assert np.array_equal(bits, dist <= 4)


def test_fast_power_no_squaring_for_tiny_inputs():
    for n in (1, 2, 3):
        a = random_adjacency(np.random.default_rng(n), n, 0.5)
        g, count = power_fast(BinaryMatrix(a))
        assert count == 0
        assert g == BinaryMatrix(a)


def test_fast_power_block_diagonal_stays_block_diagonal():
    a = np.zeros((7, 7), dtype=bool)
    a[:3, :3] = chain_bits(3)
    a[3:, 3:] = chain_bits(4)
    g, _ = power_fast(BinaryMatrix(a))
    bits = g.bits
    assert not bits[:3, 3:].any()
    assert not bits[3:, :3].any()
    # each diagonal block is the same number of squarings of the block itself
    sub = BinaryMatrix(chain_bits(3))
    for _ in range(2):
        sub = bool_multiply(sub, sub)
    assert np.array_equal(bits[:3, :3], sub.bits)


def test_naive_power_chain_reaches_three_hops():
    # n = 7 -> k = 3: the 3-fold product reaches exactly 3 hops.
    a = chain_bits(7)
    g = power_naive_oracle(BinaryMatrix(a))
    bits = g.bits
    assert bits[0, 3]
    assert not bits[0, 4]
    dist = bfs_hop_distances(a)
    assert np.array_equal(bits, dist <= 3)


def test_naive_power_k1_returns_input():
    a = BinaryMatrix(random_adjacency(np.random.default_rng(3), 2, 0.5))
    assert power_naive_oracle(a) == a


def test_fast_power_is_superset_of_naive():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        a = BinaryMatrix(random_adjacency(rng, n, 0.08))
        fast, _ = power_fast(a)
        naive = power_naive_oracle(a)
        assert not (naive.bits & ~fast.bits).any()


def test_semiring_power_equals_binarized_integer_power():
    # On 0/1 matrices the boolean semiring product agrees with binarizing
    # the ordinary integer product, so the k-fold powers agree too.
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        bits = rng.random((n, n)) < 0.35
        k = n // 2
        got = power_naive_oracle(BinaryMatrix(bits)).bits
        assert np.array_equal(got, binarized_int_power(bits, k))


def test_fast_power_encodes_bounded_reachability():
    rng = np.random.default_rng(29)
    for _ in range(15):
        n = int(rng.integers(2, 65))
        a = random_adjacency(rng, n, 0.05)
        g, count = power_fast(BinaryMatrix(a))
        reach = 2**count
        dist = bfs_hop_distances(a)
        assert np.array_equal(g.bits, dist <= reach)


def test_fast_power_multiplication_count_matches_plan():
    for n in (1, 2, 3, 4, 7, 16, 33, 100):
        a = BinaryMatrix(random_adjacency(np.random.default_rng(n), n, 0.1))
        _, count = power_fast(a)
        assert count == make_power_plan(n).m


def test_squaring_transitive_closure_is_idempotent():
    rng = np.random.default_rng(31)
    a = BinaryMatrix(random_adjacency(rng, 20, 0.08))
    prev = a
    for _ in range(10):
        nxt = bool_multiply(prev, prev)
        if nxt == prev:
            break
        prev = nxt
    assert bool_multiply(prev, prev) == prev


def test_power_fast_peak_memory_is_eleven_bytes_an_entry():
    # A chain runs every planned squaring; the peak ``power_fast`` documents
    # is 11 bytes per entry, the adjacency included.
    n = 600
    a = BinaryMatrix(chain_bits(n))
    tracemalloc.start()
    try:
        g, _ = power_fast(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The trace starts after ``a`` exists; its n * n bytes come on top.
    total = peak + a.bits.nbytes
    assert g != a
    assert (11 - 1) * n * n < total
    assert total <= 11 * n * n + 2**12
