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
  (:class:`repro.indexing.PathTrie` seals its postings through the
  same two functions, over graph IDs instead of vertices);
* **the join** backtracks over per-level tables that are functions of
  the matcher's plan alone, in one explicit-stack loop: the candidates
  consistent with the partial map are a mask expression, and the step
  bill of the scan that would have found them is read off popcounts.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Generator, Mapping, Sequence
from typing import Optional

from .engine import MatchOutcome

__all__ = [
    "Thresholds",
    "mask_ge",
    "mask_join",
    "threshold_masks",
]


#: ascending distinct counts, and per count the bitmask of the vertices
#: whose count is at least that much
Thresholds = tuple[list[int], list[int]]


def threshold_masks(masks_by_count: Mapping[int, int]) -> Thresholds:
    """Seal ``count -> bitmask of the vertices with exactly that count``
    into threshold masks: the counts ascending, each mask OR'd with
    every mask above it."""
    counts = sorted(masks_by_count)
    masks = [0] * len(counts)
    mask = 0
    for i in range(len(counts) - 1, -1, -1):
        mask |= masks_by_count[counts[i]]
        masks[i] = mask
    return counts, masks


def mask_ge(thresholds: Optional[Thresholds], needed: int) -> int:
    """Bitmask of the vertices whose count is at least ``needed``
    (``thresholds`` is None where every count is zero)."""
    if thresholds is None:
        return 0
    counts, masks = thresholds
    i = bisect_left(counts, needed)
    return masks[i] if i < len(masks) else 0


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
