"""Gossip exchange kernels over array state.

State layout shared by both kernels:

* ``averaged`` — shape ``(n, k)``: all quantities that merge by averaging
  (interpolation fractions, verification fractions, the size weight).
* ``extremes`` — shape ``(n, 2)``: per-node (minimum, maximum) estimates,
  merging by min/max.
* ``joined`` — shape ``(n,)`` bool: whether the node has seen the
  instance.  **Invariant**: an unjoined node's rows hold exactly its
  initial state (indicator fractions, weight 0, own-value extremes), so
  joining is simply flipping the flag and exchanging.

Two kernels:

* :func:`sequential_round` — every node initiates one push–pull exchange
  with a uniformly random other node, sequentially in a random order
  (PeerSim cycle-driven semantics; a node's later exchanges see earlier
  effects).  This is the reference kernel — and the *naive baseline* of
  the N-scaling benchmark: a Python loop over nodes, unusable beyond a
  few tens of thousands of nodes.
* :func:`matching_round` — one random perfect matching per round, all
  pairs exchange simultaneously (fully vectorised).  Converges
  exponentially with a slightly smaller per-round factor (each node takes
  part in exactly one exchange per round instead of two on average);
  the only kernel that reaches million-node populations.

Both kernels accept an optional :class:`ExchangeBuffers`: preallocated
per-round index scratch (the node permutation and partner draws) reused
across rounds and instances.  Buffered and unbuffered paths consume the
generator identically (an in-place shuffle over a copied identity is
exactly what ``rng.permutation`` does internally, and the partner draw
is the same ``rng.integers`` call), so enabling buffers never changes a
seeded run — a property the tests assert bit-for-bit.

The matching kernel gathers pair rows with plain ``np.take`` rather
than into preallocated row scratch: under the default ``mode='raise'``,
``np.take(..., out=)`` buffers its output internally (so a bounds error
cannot leave ``out`` half written), which costs an extra copy of every
gathered row.  At 200k nodes × 51 float64 columns a steady-state round
took a median of ~107 ms with ``out=`` scratch against ~79 ms with
allocating gathers, with bit-identical results.

Both kernels implement the two join semantics discussed in DESIGN.md:
``literal`` (paper Fig. 1: the joiner merges, the contacted peer ignores
the empty reply — not mass-conserving) and ``symmetric`` (the joiner
initialises first and a normal exchange follows — mass-conserving).

The ``literal`` mode is *registered* as non-mass-conserving below rather
than silently exempted: every join under it duplicates the contacted
peer's averaged mass (the joiner absorbs half of the peer's state while
the peer keeps all of it), so the column sums the convergence proof
relies on inflate with each join.  Concretely, size weights gain mass —
``sum(w)`` grows beyond 1 and per-node size estimates ``1/w`` are biased
low — and fraction columns are pulled towards the values of nodes that
joined early, over-weighting the initiator's neighbourhood.  The runtime
sanitizer (:mod:`repro.lint.sanitizer`) skips the mass-equality check
for registered modes by declaration, while still enforcing per-node
range and monotonicity invariants.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.core.config import LITERAL_JOIN_BIAS
from repro.core.conservation import register_non_conserving

__all__ = [
    "ExchangeBuffers",
    "matching_round",
    "random_partners",
    "sequential_round",
]

register_non_conserving("literal", LITERAL_JOIN_BIAS)


class ExchangeBuffers:
    """Preallocated per-round index scratch for the exchange kernels.

    One instance is sized for a fixed population ``n`` and reused for
    every round of every instance: the permutation and partner draws
    fill preallocated index buffers in place.  ``width`` and ``dtype``
    record the state matrix the scratch serves (:meth:`ensure` keys
    reuse on them); no state rows are held here — the matching kernel's
    plain ``np.take`` gathers beat gathering into ``out=`` row scratch
    (see the module docstring).

    The buffered and unbuffered paths consume the generator identically
    (`shuffle` over a copied identity is exactly what ``permutation``
    does internally), so enabling buffers never changes a seeded run.
    """

    def __init__(self, n: int, width: int, dtype: np.dtype | type = np.float64):
        if n < 2:
            raise SimulationError("need at least 2 nodes to gossip")
        if width < 1:
            raise SimulationError("state width must be at least 1")
        self.n = int(n)
        self.width = int(width)
        self.dtype = np.dtype(dtype)
        self._identity = np.arange(self.n, dtype=np.intp)
        self.order = np.empty(self.n, dtype=np.intp)
        self.partners = np.empty(self.n, dtype=np.int64)
        self._ge = np.empty(self.n, dtype=bool)

    @classmethod
    def ensure(
        cls,
        current: "ExchangeBuffers | None",
        n: int,
        width: int,
        dtype: np.dtype | type = np.float64,
    ) -> "ExchangeBuffers":
        """Reuse ``current`` when it matches, else allocate fresh scratch."""
        resolved = np.dtype(dtype)
        if (
            current is not None
            and current.n == n
            and current.width == width
            and current.dtype == resolved
        ):
            return current
        return cls(n, width, resolved)

    def permutation(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform random permutation of ``0..n-1``, allocation-free.

        Identical stream consumption to ``rng.permutation(n)``: copy the
        identity, shuffle in place.
        """
        order = self.order
        order[:] = self._identity
        rng.shuffle(order)
        return order

    def uniform_partners(self, rng: np.random.Generator, order: np.ndarray) -> np.ndarray:
        """Uniform partner (≠ self) per node, adjusted in place.

        The draw itself is the same ``rng.integers`` call as the
        unbuffered path (NumPy has no ``out=`` form for bounded integer
        draws), copied into the preallocated buffer; the ≥-shift that
        keeps a node from gossiping with itself then runs in place
        instead of materialising two comparison temporaries.
        """
        partners = self.partners
        partners[:] = rng.integers(0, self.n - 1, size=self.n)
        np.greater_equal(partners, order, out=self._ge)
        np.add(partners, self._ge, out=partners)
        return partners


def random_partners(
    n: int,
    rng: np.random.Generator,
    buffers: ExchangeBuffers | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Random node order and a uniform partner (≠ self) for each.

    With ``buffers`` the permutation is shuffled in place into the
    preallocated index buffer (the order stream is identical to the
    unbuffered path) and the partner draw fills preallocated scratch —
    no per-round allocation.  Without buffers, fresh arrays are drawn
    exactly as the original implementation did.
    """
    if n < 2:
        raise SimulationError("need at least 2 nodes to gossip")
    if buffers is not None and buffers.n == n:
        order = buffers.permutation(rng)
        partners = buffers.uniform_partners(rng, order)
        return order, partners
    order = rng.permutation(n)
    partners = rng.integers(0, n - 1, size=n)
    partners = partners + (partners >= order)
    return order, partners


def sequential_round(
    averaged: np.ndarray,
    extremes: np.ndarray,
    joined: np.ndarray,
    rng: np.random.Generator,
    join_mode: str = "symmetric",
    excluded: np.ndarray | None = None,
    buffers: ExchangeBuffers | None = None,
) -> int:
    """One sequential push–pull round; returns exchanges that carried data.

    Nodes flagged in ``excluded`` ignore the instance entirely (paper
    §VII-G: nodes that enter the system mid-instance): an exchange with
    an excluded peer is a no-op for both sides.
    """
    n = averaged.shape[0]
    order, partners = random_partners(n, rng, buffers)
    literal = join_mode == "literal"
    active = 0
    for i in range(n):
        p = int(order[i])
        q = int(partners[i])
        if excluded is not None and (excluded[p] or excluded[q]):
            continue
        jp = joined[p]
        jq = joined[q]
        if not (jp or jq):
            continue
        active += 1
        if literal and jp != jq:
            # Only the joiner updates; the informed peer keeps its state.
            j, s = (p, q) if not jp else (q, p)
            averaged[j] += averaged[s]
            averaged[j] *= 0.5
            lo = min(extremes[j, 0], extremes[s, 0])
            hi = max(extremes[j, 1], extremes[s, 1])
            extremes[j, 0] = lo
            extremes[j, 1] = hi
            joined[j] = True
            continue
        mean = (averaged[p] + averaged[q]) * 0.5
        averaged[p] = mean
        averaged[q] = mean
        lo = min(extremes[p, 0], extremes[q, 0])
        hi = max(extremes[p, 1], extremes[q, 1])
        extremes[p, 0] = lo
        extremes[p, 1] = hi
        extremes[q, 0] = lo
        extremes[q, 1] = hi
        joined[p] = True
        joined[q] = True
    return active


def matching_round(
    averaged: np.ndarray,
    extremes: np.ndarray,
    joined: np.ndarray,
    rng: np.random.Generator,
    join_mode: str = "symmetric",
    excluded: np.ndarray | None = None,
    buffers: ExchangeBuffers | None = None,
) -> int:
    """One random-matching round (vectorised); returns active exchanges.

    Every case — steady state, spreading, exclusions, ``literal`` joins —
    runs one gather/average/scatter sequence over the active pairs.  Once
    every node has joined and none is excluded (the steady state an
    instance spends most of its rounds in) all pairs are active and the
    join-mask work is skipped.
    """
    n = averaged.shape[0]
    if n < 2:
        raise SimulationError("need at least 2 nodes to gossip")
    if buffers is not None and buffers.n == n:
        perm = buffers.permutation(rng)
    else:
        perm = rng.permutation(n)
    half = n // 2
    a = perm[:half]
    b = perm[half : 2 * half]

    spreading = excluded is not None or not joined.all()
    active = half
    if spreading:
        mask = joined[a] | joined[b]
        if excluded is not None:
            mask &= ~excluded[a] & ~excluded[b]
        a = a[mask]
        b = b[mask]
        active = int(mask.sum())
        if join_mode == "literal":
            both = joined[a] & joined[b]
            one = ~both  # exactly one joined (none-joined pairs were dropped)
            if one.any():
                ao, bo = a[one], b[one]
                joiner = np.where(joined[ao], bo, ao)
                source = np.where(joined[ao], ao, bo)
                averaged[joiner] = (averaged[joiner] + averaged[source]) * 0.5
                lo = np.minimum(extremes[joiner, 0], extremes[source, 0])
                hi = np.maximum(extremes[joiner, 1], extremes[source, 1])
                extremes[joiner, 0] = lo
                extremes[joiner, 1] = hi
                joined[joiner] = True
            a = a[both]
            b = b[both]
    if a.size == 0:
        return active

    rows = np.take(averaged, a, axis=0)
    rows += np.take(averaged, b, axis=0)
    rows *= 0.5
    averaged[a] = rows
    averaged[b] = rows
    ext = np.take(extremes, a, axis=0)
    ext_b = np.take(extremes, b, axis=0)
    np.minimum(ext[:, 0], ext_b[:, 0], out=ext[:, 0])
    np.maximum(ext[:, 1], ext_b[:, 1], out=ext[:, 1])
    extremes[a] = ext
    extremes[b] = ext
    if spreading:
        joined[a] = True
        joined[b] = True
    return active
