"""The bitmask tier GraphQL and sPath share.

Both matchers keep every vertex set — a label's vertices
(``GraphIndex.label_masks``), a query vertex's candidates, the partial
map's images — as one int over stored-graph vertex IDs (bit ``v`` means
vertex ``v``, as in ``adj_masks``), and read a "list" as that int in
ascending bit order.
Two pieces are common to them:

* **threshold masks** turn "which stored vertices count at least ``k``
  of something" (neighbours with a label, vertices with a label within
  a distance) into one bisect and one lookup, so a signature filter is
  an AND of a few masks instead of a walk over the label's vertices
  (:class:`repro.indexing.PathTrie` seals its posting rows through
  the same two functions, over graph IDs instead of vertices);
* **the counting pass** builds both indexes' tables for every vertex
  at once: balls grow level by level (:func:`ball_levels`), and each
  label's counts are the sum of its vertices' balls, kept as bit-sliced
  counters (:func:`label_count_thresholds`);
* **the join** backtracks over per-level tables that are functions of
  the matcher's plan alone, in one explicit-stack loop: the candidates
  consistent with the partial map are a mask expression, and the step
  bill of the scan that would have found them is read off popcounts.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Generator, Iterator, Mapping, Sequence
from functools import reduce
from operator import or_
from typing import Optional

from .engine import MatchOutcome

__all__ = [
    "Thresholds",
    "ball_levels",
    "label_count_thresholds",
    "mask_ge",
    "mask_join",
    "threshold_masks",
]


#: ascending distinct counts, and per count the bitmask of the vertices
#: whose count is at least that much
Thresholds = tuple[tuple[int, ...], tuple[int, ...]]


def threshold_masks(masks_by_count: Mapping[int, int]) -> Thresholds:
    """Seal ``count -> bitmask of the vertices with exactly that count``
    into threshold masks: the counts ascending, each mask OR'd with
    every mask above it.  Both are tuples: nothing patches a table
    where it stands."""
    counts = sorted(masks_by_count)
    masks = [0] * len(counts)
    mask = 0
    for i in range(len(counts) - 1, -1, -1):
        mask |= masks_by_count[counts[i]]
        masks[i] = mask
    return tuple(counts), tuple(masks)


def mask_ge(thresholds: Optional[Thresholds], needed: int) -> int:
    """Bitmask of the vertices whose count is at least ``needed``
    (``thresholds`` is None where every count is zero)."""
    if thresholds is None:
        return 0
    counts, masks = thresholds
    i = bisect_left(counts, needed)
    return masks[i] if i < len(masks) else 0


def ball_levels(
    adj_masks: Sequence[int],
    neighbors: Sequence[Sequence[int]],
    radius: int,
) -> Iterator[list[int]]:
    """Every vertex's closed ball, one level at a time.

    Yields, for ``d`` = 1 .. ``radius``, ``balls`` with ``balls[v]`` the
    bitmask of the vertices within distance ``d`` of ``v``, ``v``
    itself included (XOR ``1 << v`` out for the open ball).  Level 1
    is ``adj_masks`` plus each vertex's own bit; a vertex within
    distance ``d`` of ``v`` is within ``d - 1`` of ``v`` or of one of
    its neighbours, so level ``d`` ORs level ``d - 1`` over each closed
    neighbourhood: 2|E| ORs a level, and no search from any vertex.
    """
    balls = [mask | (1 << v) for v, mask in enumerate(adj_masks)]
    yield balls
    for _ in range(radius - 1):
        prev = balls
        balls = []
        for v, nbrs in enumerate(neighbors):
            ball = prev[v]
            for u in nbrs:
                ball |= prev[u]
            balls.append(ball)
        yield balls


def label_count_thresholds(
    adj_masks: Sequence[int],
    neighbors: Sequence[Sequence[int]],
    label_index: Mapping[object, Sequence[int]],
    radius: int,
) -> list[dict[object, Thresholds]]:
    """Per distance ``d`` = 1 .. ``radius``, ``label -> threshold
    masks`` over how many vertices carrying that label lie within
    distance ``d`` of a vertex, the vertex itself not counted.

    ``label_index`` maps each label to its vertices; the tables keep
    its label order and leave out a label no vertex counts.  Distance
    is symmetric, so ``v`` counts ``u`` exactly when ``u``'s open ball
    holds ``v``: a label's counts are the sum of its vertices' open
    balls, added into a bit-sliced counter whose plane ``i`` is the
    bitmask of the vertices with bit ``i`` of their count set (one
    ripple-carry of ANDs and XORs per ball).  The planes then split
    the counted vertices digit by digit into the exact-count masks
    :func:`threshold_masks` seals.
    """
    levels = []
    for balls in ball_levels(adj_masks, neighbors, radius):
        level: dict[object, Thresholds] = {}
        for lab, members in label_index.items():
            planes: list[int] = []
            for u in members:
                carry = balls[u] ^ (1 << u)
                i = 0
                while carry:
                    if i == len(planes):
                        planes.append(carry)
                        break
                    plane = planes[i]
                    planes[i] = plane ^ carry
                    carry &= plane
                    i += 1
            if planes:
                level[lab] = threshold_masks(_exact_counts(planes))
        levels.append(level)
    return levels


def _exact_counts(planes: Sequence[int]) -> dict[int, int]:
    """``count -> bitmask of the vertices with exactly that count`` for
    a bit-sliced counter, counts of zero left out: the counted vertices
    split on each plane, most significant first."""
    groups = [(0, reduce(or_, planes))]
    for plane in reversed(planes):
        split = []
        for count, mask in groups:
            count <<= 1
            high = mask & plane
            if high:
                split.append((count | 1, high))
            if high != mask:
                split.append((count, mask ^ high))
        groups = split
    return dict(groups)


def mask_join(
    adj_masks: Sequence[int],
    order: Sequence[int],
    cands: Sequence[int],
    back: Sequence[Sequence[int]],
    opener: Sequence[int],
    checks: Sequence[Sequence[tuple[int, int]]],
    outcome: MatchOutcome,
    max_embeddings: int,
    count_only: bool,
) -> Generator[Optional[int], None, None]:
    """Backtracking join over per-level tables, one step per probe.

    Level ``i`` binds query vertex ``order[i]`` to a stored vertex that
    is in ``cands[i]``, unused, and adjacent to the images of the
    levels in ``back[i]`` (the query vertex's already-bound
    neighbours).  It finds them by *scanning a pool* in ascending ID
    order — the neighbours of level ``opener[i]``'s image, or
    ``cands[i]`` itself when ``opener[i]`` is -1 — and is charged one
    step per pool vertex scanned, accepted or not.  After binding,
    each ``(a, b)`` of ``checks[i]`` costs one more step and, unless
    ``a`` is -1, requires the images of levels ``a`` and ``b`` to be
    adjacent (sPath's junction revisits).

    The scan is not executed: the accepted vertices are the bits of
    one mask expression, and the probes between two of them are the
    pool bits between them, a popcount.  What is yielded — a batch up
    to and including each accepted vertex, ``None`` per check, the rest
    of the pool when a level runs out — is exactly what the scanning,
    recursive joins kept in ``tests/_nfv_recursive.py`` yield.  The
    loop keeps its own stack, so the query size is not bounded by the
    interpreter's recursion limit.

    Fills ``outcome.found`` / ``num_embeddings`` / ``embeddings`` (keys
    in ``order``); stops after ``max_embeddings``.
    """
    n = len(order)
    image = [0] * n  # image[level]: stored-graph vertex bound there
    # per level, saved while the search is below it
    bits = [0] * n  # 1 << image[level]
    pools = [0] * n  # the pool being scanned
    todo = [0] * n  # acceptable pool vertices not tried yet
    probed = [0] * n  # pool vertices the scan is past
    used = 0  # stored-graph vertices in the partial map
    found = 0
    leaf = n - 1
    level = 0
    pool = rest = cands[0]
    seen = 0
    while level >= 0:
        if rest:
            low = rest & -rest
            rest ^= low
            # the scan reaches ``low`` after every pool vertex below it
            upto = (pool & (low - 1)).bit_count() + 1
            yield upto - seen
            seen = upto
            image[level] = low.bit_length() - 1
            for a, b in checks[level]:
                yield
                if a >= 0 and not (adj_masks[image[a]] >> image[b]) & 1:
                    break
            else:
                if level != leaf:
                    bits[level] = low
                    pools[level] = pool
                    todo[level] = rest
                    probed[level] = seen
                    used |= low
                    level += 1
                    rest = cands[level] & ~used
                    for lv in back[level]:
                        rest &= adj_masks[image[lv]]
                    pool = cands[level]
                    if opener[level] >= 0:
                        pool = adj_masks[image[opener[level]]]
                    seen = 0
                    continue
                found += 1
                if not count_only:
                    outcome.embeddings.append(dict(zip(order, image)))
            # back at this level (a failed check, or an embedding)
            if found >= max_embeddings:
                break
        else:
            # nothing acceptable is left: the scan runs out the pool,
            # then back up one
            tail = pool.bit_count() - seen
            if tail:
                yield tail
            level -= 1
            if level < 0 or found >= max_embeddings:
                break
            used ^= bits[level]
            pool = pools[level]
            rest = todo[level]
            seen = probed[level]
    outcome.found = found > 0
    outcome.num_embeddings = found
