"""Boolean matrix powers via repeated squaring: the paper's method.

The paper reaches the radius graph's components through a covering power of
its adjacency matrix.  ``radclust cluster`` and ``trajectory`` do not take
this route: ``clustering.cluster_labels`` labels the components
straight from the adjacency in ``O(n**2 log n)``, against ``O(n**3 log n)``
here.  The power stays as the paper's reference: ``radclust bench`` and the
acceptance tests check the paper's exponent claim with it, and the tests
hold the component labels to its partition.

All products here live in the Boolean semiring: addition is OR, multiplication
is AND.  For 0/1 matrices this has exactly the same support as the integer
product, so a matrix may be binarized after every multiplication instead of
once at the end, which keeps entries from blowing up at large exponents.

The integer product is computed by a float32 BLAS product.  This is exact:
every entry is a sum of non-negative 0/1 terms, so every partial sum is an
integer no larger than ``n``, and integers below ``2**24`` are represented
exactly in float32 whatever the summation order.  A sum is therefore zero
exactly when every term is, and binarizing the float result reproduces the
semiring product bit for bit.

Raising an adjacency matrix that carries an all-ones diagonal to the power
``e`` yields the "reachable in at most ``e`` hops" relation.  The exponent
needed to connect the two ends of the worst-case node chain is
``k = floor(n / 2)``; instead of ``k - 1`` sequential multiplications, the
fast path squares the matrix ``m = ceil(log2(k))`` times, reaching the
exponent ``2**m >= k``.  Overshooting the exponent can only add reachable
pairs inside a connected component, never across components, so the cluster
partition is unchanged.

Squaring stops early at a fixpoint: once ``G . G == G``, every later square
is ``G`` again, so the matrix returned is bit-identical to the one the full
``m`` squarings would give.  The count ``power_fast`` reports is still the
planned ``m``, the number of products the paper's method calls for; the
squarings actually executed are at most ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "POWER_PEAK_BYTES_PER_ENTRY",
    "BinaryMatrix",
    "PowerPlan",
    "bool_multiply",
    "make_power_plan",
    "power_fast",
    "power_naive_oracle",
]

# Peak bytes per matrix entry while ``power_fast`` squares an adjacency its
# caller holds: the float32 operand and product (4 + 4), their boolean
# comparison, the adjacency and the current power (1 each).
POWER_PEAK_BYTES_PER_ENTRY = 11


class BinaryMatrix:
    """A square 0/1 matrix stored as a read-only boolean array.

    Any array-like input is accepted; nonzero entries become 1.  Only a
    read-only boolean ndarray that owns its data is kept, not copied.
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        owned = isinstance(bits, np.ndarray) and bits.dtype == bool and bits.flags.owndata
        arr = bits if owned and not bits.flags.writeable else np.array(bits, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"binary matrix must be square, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("binary matrix must have at least one row")
        arr.setflags(write=False)
        self.bits = arr

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(np.eye(n, dtype=bool))

    def to_array(self) -> np.ndarray:
        """Entries as a fresh int8 array (handy for printing and oracles)."""
        return self.bits.astype(np.int8)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    __hash__ = None  # mutable-array semantics: compare, don't hash

    def __repr__(self) -> str:
        return f"BinaryMatrix(n={self.n})"


@dataclass(frozen=True)
class PowerPlan:
    """Exponent bookkeeping for one matrix size.

    ``k`` is the chain-covering exponent ``floor(n / 2)``; ``m`` the number
    of squarings needed to reach at least that exponent, which is also the
    number of full matrix products repeated squaring costs.
    ``naive_mults`` counts the products of the sequential method, ``k - 1``.
    """

    n: int
    k: int
    m: int
    naive_mults: int


def make_power_plan(n: int) -> PowerPlan:
    """Build the :class:`PowerPlan` for an ``n``-node problem.

    For ``n <= 3``, ``k`` is 0 or 1, the required power is the matrix itself
    and no multiplication happens (``m = 0``).
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    k = n // 2
    # ceil(log2(k)) in exact integer arithmetic; 0 for k in {0, 1}.
    m = (k - 1).bit_length() if k >= 1 else 0
    return PowerPlan(n=n, k=k, m=m, naive_mults=max(k - 1, 0))


def bool_multiply(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Matrix product over the Boolean semiring: OR over t of a(i,t) AND b(t,j).

    Routed through a float32 BLAS product, which is exact for ``n < 2**24``
    (see the module docstring; an n x n boolean matrix that large would not
    fit in memory), so binarizing it reproduces the semiring product bit for
    bit.  Squaring (``b is a``) converts the operand once.
    """
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    fa = a.bits.astype(np.float32)
    fb = fa if b is a else b.bits.astype(np.float32)
    product = fa @ fb > 0.5
    product.setflags(write=False)
    return BinaryMatrix(product)


def power_fast(a: BinaryMatrix) -> tuple[BinaryMatrix, int]:
    """Raise ``a`` to the power ``2**m`` by at most ``m`` successive squarings.

    Stops at the first squaring that changes nothing, since every later one
    would return the same matrix.  Returns the power matrix and the planned
    multiplication count, which always equals ``make_power_plan(a.n).m``.
    Memory peaks at ``POWER_PEAK_BYTES_PER_ENTRY * n**2`` bytes, ``a``
    included.
    """
    plan = make_power_plan(a.n)
    g = a
    for _ in range(plan.m):
        squared = bool_multiply(g, g)
        if squared == g:
            break
        g = squared
    return g, plan.m


def power_naive_oracle(a: BinaryMatrix) -> BinaryMatrix:
    """Sequential reference: ``a`` to the power ``k = floor(n / 2)``.

    Costs ``k - 1`` semiring multiplications (none for ``k <= 1``, where the
    result is ``a`` itself).  Intended as a small-n test oracle, not a
    production path.
    """
    plan = make_power_plan(a.n)
    g = a
    for _ in range(plan.naive_mults):
        g = bool_multiply(g, a)
    return g
