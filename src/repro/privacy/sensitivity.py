"""Sensitivity computations (Theorem 1's GS and Theorem 2's SS).

* **Global sensitivity of X-Sim.** X-Sim values are certainty-weighted
  means of similarities in [−1, 1], so removing one profile can move a
  value by at most ``X-Sim_max − X-Sim_min = 2`` — the constant GS = 2
  that Algorithm 3 hard-codes.

* **Similarity-based (local) sensitivity** (Theorem 2). For a pair of
  items, how much can the adjusted-cosine similarity change when one
  co-rater's profile is removed? The theorem bounds it by the larger of
  (a) the largest single co-rater contribution measured against the
  reduced norms, and (b) the largest renormalisation shift. Pairs with
  much co-rating mass get tiny sensitivities — which is exactly why PNSA
  adds far less noise than a global bound would force.

Both item-pair and user-pair variants are provided: Algorithm 4/5 are
written item-based, and the user-based X-Map variant needs the transpose.
Both read the centred slices the table's
:class:`~repro.data.matrix.MatrixRatingStore` already holds — an item's
CSC column of user-mean-centred ratings, a user's CSR row of
item-mean-centred ratings — and every sum is a ``math.fsum``, so the
result does not depend on the order the co-raters are visited in.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.ratings import RatingTable

#: Theorem 1 / Algorithm 3 line 2: |X-Sim_max − X-Sim_min| = |1 − (−1)|.
XSIM_GLOBAL_SENSITIVITY = 2.0

#: Floor for degenerate sensitivities: when a pair's rating vectors are
#: so thin that removing a user empties them, fall back to the global
#: worst case for a similarity in [−1, 1].
_DEGENERATE_SENSITIVITY = 2.0


def _pair_sensitivity(index_column, centered, slice_a, slice_b) -> float:
    """The Theorem 2 formula over two centred slices of one store
    layout: ``index_column`` / ``centered`` are aligned arrays,
    ``slice_a`` / ``slice_b`` the ``(start, end)`` of the two vectors
    (``None``: a profile the store has no entry for)."""
    if slice_a is None or slice_b is None:
        return _DEGENERATE_SENSITIVITY
    vector_a = centered[slice_a[0]:slice_a[1]]
    vector_b = centered[slice_b[0]:slice_b[1]]
    _, at_a, at_b = np.intersect1d(
        index_column[slice_a[0]:slice_a[1]], index_column[slice_b[0]:slice_b[1]],
        assume_unique=True, return_indices=True)
    if not len(at_a):
        # No co-rater: removing any single profile cannot create or
        # destroy co-rating mass beyond one entry; the similarity is 0
        # and stays 0 except via the norms, bounded by the global case.
        return _DEGENERATE_SENSITIVITY
    norm_sq_a = math.fsum((vector_a * vector_a).tolist())
    norm_sq_b = math.fsum((vector_b * vector_b).tolist())
    common_a = vector_a[at_a]
    common_b = vector_b[at_b]
    dot = math.fsum((common_a * common_b).tolist())
    norms = math.sqrt(norm_sq_a) * math.sqrt(norm_sq_b)

    reduced_a = np.sqrt(np.maximum(0.0, norm_sq_a - common_a ** 2))
    reduced_b = np.sqrt(np.maximum(0.0, norm_sq_b - common_b ** 2))
    live = (reduced_a != 0.0) & (reduced_b != 0.0)
    degenerate = not live.all()
    best = 0.0
    if live.any():
        reduced = reduced_a[live] * reduced_b[live]
        # (a) a co-rater's own contribution over the reduced norms
        contribution = np.abs(common_a[live] * common_b[live]) / reduced
        # (b) the renormalisation shift of the full dot product (a live
        # co-rater's reduced norms are nonzero, so the full ones are too)
        renorm = np.abs(dot / reduced - dot / norms)
        best = float(max(contribution.max(), renorm.max()))
    if best == 0.0:
        return _DEGENERATE_SENSITIVITY if degenerate else 1e-12
    # A similarity lives in [−1, 1]; its change can never exceed 2.
    return min(best, _DEGENERATE_SENSITIVITY)


def item_similarity_sensitivity(table: RatingTable, item_i: str, item_j: str) -> float:
    """``SS(t_i, t_j)`` of Theorem 2 for an item pair.

    Theorem 2 defines the vectors post-centering ("a rating is the
    result after subtracting the average rating of user x"), matching
    the adjusted-cosine computation the similarities come from: the
    store's CSC columns of user-mean-centred ratings.

    Always returns a strictly positive, finite value — the exponential
    mechanism divides by it.
    """
    store = table.matrix()
    i = store.item_index.get(item_i)
    j = store.item_index.get(item_j)
    ptr = store.item_ptr
    return _pair_sensitivity(
        store.item_user_idx, store.item_centered,
        None if i is None else (ptr[i], ptr[i + 1]),
        None if j is None else (ptr[j], ptr[j + 1]))


def user_similarity_sensitivity(table: RatingTable, user_a: str, user_b: str) -> float:
    """Theorem 2 transposed to a user pair (for user-based X-Map).

    The "profiles" whose removal we bound over are the co-rated *items*;
    ratings are centered on item means, matching Eq 1's user similarity:
    the store's CSR rows of item-mean-centred ratings.
    """
    store = table.matrix()
    a = store.user_index.get(user_a)
    b = store.user_index.get(user_b)
    ptr = store.user_ptr
    return _pair_sensitivity(
        store.user_item_idx, store.user_item_centered,
        None if a is None else (ptr[a], ptr[a + 1]),
        None if b is None else (ptr[b], ptr[b + 1]))
