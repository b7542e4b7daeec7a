"""The paper's method, kept as a reference: boolean matrix powers and mask labels.

The paper reaches the radius graph's components through a covering power of
its adjacency matrix, read by a mask scan (``mask_labels``).  The clustering
path neither takes this route nor imports this module:
``clustering.cluster_labels`` labels the components straight from the
adjacency in ``O(n**2 log n)``, against ``O(n**3 log n)`` here.  Any power
``A**e`` (``e >= 1``) of a symmetric adjacency with a set diagonal has the
components of ``A`` itself, so both routes give one partition.  The
reference is here to check that claim and the paper's exponent: ``radclust
bench``, the acceptance tests and the differential tests use it, with
``connected_components_oracle``, a breadth-first search, as ground truth
independent of both routes.

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

from collections import deque
from dataclasses import dataclass

import numpy as np

from .clustering import LabelVector
from .geometry import BinaryMatrix

__all__ = [
    "PowerPlan",
    "bool_multiply",
    "make_power_plan",
    "power_fast",
    "power_naive_oracle",
    "mask_labels",
    "connected_components_oracle",
]


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
    Memory peaks at ``11 * n**2`` bytes, ``a`` included: the float32
    operand and product (4 + 4 bytes an entry), their boolean comparison,
    ``a`` and the current power (1 each).
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


def mask_labels(g: BinaryMatrix) -> LabelVector:
    """The paper's mask-scan labels of a power matrix, in one vectorised pass.

    The scan walks the nodes in index order; each still-unlabeled node seeds
    a new cluster whose mask is its row, and every later unlabeled node
    whose row shares a set bit with the mask joins it.  When ``g`` covers at
    least ``floor(n / 2)`` hops, rows i and j share a bit exactly when i and
    j are in one component, so the lowest row sharing a bit with row j is
    the lowest index of j's component: the seed the scan labels j from.
    This computes that row for every j at once: ``first[t]`` is the lowest
    row with bit t set and ``seed[j]`` the least ``first[t]`` over row j's
    bits, one masked row minimum over a broadcast view of ``first`` with no
    ``n x n`` integer temporary; distinct seeds are ranked densely.

    On an under-powered matrix the result need not be the components: a
    component longer than the matrix's reach can split.  That keeps the
    paper's exponent claim testable (``radclust bench``, the acceptance
    tests); ``clustering.cluster_labels`` is the clustering path.
    """
    bits = g.bits
    if not bits.any(axis=1).all():
        raise ValueError("power matrix has an all-zero row")
    first = bits.argmax(axis=0)
    seed = np.minimum.reduce(
        np.broadcast_to(first, bits.shape), axis=1, where=bits, initial=g.n
    )
    _, labels = np.unique(seed, return_inverse=True)
    return LabelVector(labels + 1)


def connected_components_oracle(a: BinaryMatrix) -> LabelVector:
    """Connected components of the adjacency graph, by breadth-first search.

    Independent of the power and of the hooking; uses the same numbering
    convention (the component of the lowest-index unlabeled node gets the
    next label).
    """
    bits = a.bits
    if not np.array_equal(bits, bits.T):
        raise ValueError("adjacency matrix must be symmetric")
    n = a.n
    labels = np.zeros(n, dtype=np.int64)
    c = 0
    for start in range(n):
        if labels[start] != 0:
            continue
        c += 1
        labels[start] = c
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in np.flatnonzero(bits[v]):
                if labels[w] == 0:
                    labels[w] = c
                    queue.append(int(w))
    return LabelVector(labels)
