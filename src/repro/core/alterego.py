"""AlterEgo generation — the Generator component (§4.3, §5.3, Figure 3).

An **AlterEgo** is an artificial profile for a user in a domain where she
has little or no activity: every item she rated in the source domain is
replaced by target-domain items, carrying the rating value and timestep
along. Following the paper's footnote 10 ("we could also choose a set of
replacements for any item, using X-Sim, in the target domain to have
more diversity"), each source item maps to its top ``n_replacements``
X-Sim candidates; the diversity is not cosmetic — richer AlterEgos give
the downstream CF far more anchor points, and the accuracy experiments
(Figure 8) measurably depend on it.

Replacement policies:

* **non-private (NX-Map)** — the top-R target items by X-Sim,
  deterministically; mapped ratings are merged weighted by X-Sim (a
  stronger link transfers the rating with more force);
* **private (X-Map)** — R draws without replacement from the PRS
  exponential mechanism (Algorithm 3), each spending ε/R so the whole
  selection stays ε-DP per Theorem 1 + sequential composition; merged
  unweighted, because the exact X-Sim values must not leak into the
  published profile.

When several source items map to the same target item the mapped ratings
merge (weighted mean, latest timestep). If the user already has real
target-domain ratings they take precedence over mapped ones (footnote 6:
the mapped profile is *appended to* the original profile).
"""

from __future__ import annotations

import enum
import time
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.extender import XSimMap
from repro.data.ratings import Rating, RatingColumns, RatingTable
from repro.errors import ConfigError
from repro.obs import observe_stage_seconds
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.mechanisms import exponential_sample_without_replacement
from repro.privacy.sensitivity import XSIM_GLOBAL_SENSITIVITY

#: Default replacement-set size (footnote 10 diversity).
DEFAULT_N_REPLACEMENTS = 12


def _interned(known: Sequence[str], names: Sequence[str],
              used: np.ndarray) -> tuple[list[str], np.ndarray]:
    """*known* grown by the ``names[used]`` it lacks, and the codes of
    ``names[used]`` there."""
    present = np.flatnonzero(np.bincount(used, minlength=len(names))).tolist()
    grown = list(dict.fromkeys([*known, *(names[p] for p in present)]))
    code = {name: position for position, name in enumerate(grown)}
    codes = np.empty(len(names), dtype=np.int64)
    codes[present] = [code[names[p]] for p in present]
    return grown, codes[used]


class ReplacementPolicy(enum.Enum):
    """How the Generator picks each item's replacement set."""

    NON_PRIVATE = "non-private"
    PRIVATE = "private"


class AlterEgoGenerator:
    """Maps source items to target replacement sets and builds AlterEgos.

    Args:
        xsim_map: the Extender's output (source item → target candidates
            with X-Sim values); hand-made maps come from
            :meth:`~repro.core.extender.XSimMap.from_rows`.
        policy: deterministic top-R (NX-Map) or PRS draws (X-Map).
        epsilon: the PRS privacy parameter; required iff private. The
            budget covers the whole replacement set (ε/R per draw).
        seed: generator seed for the private draws.
        accountant: optional ledger; the private policy records its ε
            there once (the per-item draws protect the same profiles in
            parallel, so one entry documents the guarantee).
        n_replacements: replacement-set size R (1 recovers the basic
            single-replacement scheme of §4.3).
    """

    def __init__(self, xsim_map: XSimMap,
                 policy: ReplacementPolicy = ReplacementPolicy.NON_PRIVATE,
                 epsilon: float | None = None, seed: int = 0,
                 accountant: PrivacyAccountant | None = None,
                 n_replacements: int = DEFAULT_N_REPLACEMENTS) -> None:
        if policy is ReplacementPolicy.PRIVATE:
            if epsilon is None or epsilon <= 0:
                raise ConfigError(f"private policy requires epsilon > 0, got {epsilon}")
        elif epsilon is not None:
            raise ConfigError("epsilon is only meaningful for the private policy")
        if n_replacements <= 0:
            raise ConfigError(f"n_replacements must be positive, got {n_replacements}")
        self.xsim_map = xsim_map
        self.policy = policy
        self.epsilon = epsilon
        self.n_replacements = n_replacements
        self._rng = np.random.default_rng(seed)
        self._replacements: dict[str, list[tuple[str, float]]] = {}
        self._ranked: tuple[list[int], list[str], list[float]] | None = None
        if policy is ReplacementPolicy.PRIVATE and accountant is not None:
            accountant.spend("PRS (AlterEgo generation)", float(epsilon))

    def replacements_for(self, source_item: str) -> list[tuple[str, float]]:
        """The (replacement, merge weight) set for one source item.

        Non-private: top-R candidates by X-Sim, restricted to positive
        values (a negatively-similar item would transfer the rating to
        something the user probably feels the opposite about), weighted
        by their X-Sim. Private: R unweighted PRS draws over the full
        candidate set. Memoised — the Generator's "item mapping" step
        assigns each item one replacement set (§5.3).
        """
        cached = self._replacements.get(source_item)
        if cached is not None:
            return cached
        if self.policy is ReplacementPolicy.NON_PRIVATE:
            row = self.xsim_map.row(source_item)
            if row is None:
                return []
            ptr, names, weights = self._ranked or self._rank_all()
            chosen = list(zip(names[ptr[row]:ptr[row + 1]],
                              weights[ptr[row]:ptr[row + 1]]))
        else:
            candidates = self.xsim_map.get(source_item)
            if not candidates:
                return []
            epsilon_per_draw = float(self.epsilon) / self.n_replacements
            drawn = exponential_sample_without_replacement(
                candidates, rounds=self.n_replacements,
                epsilon_per_round=epsilon_per_draw,
                sensitivity=XSIM_GLOBAL_SENSITIVITY, rng=self._rng)
            chosen = [(item, 1.0) for item in drawn]
        self._replacements[source_item] = chosen
        return chosen

    def _rank_all(self) -> tuple[list[int], list[str], list[float]]:
        """Every row's top-R targets at or above the 1e-12 floor, ranked
        straight from the map's arrays — :func:`~repro.similarity.knn.top_k`
        per row, tie-break included: ``(row offsets, target names,
        weights)``.

        Values under the floor go first (they rank last in any row).
        The rest take one sort on an exact ``int64`` key (row, dense
        rank of the descending value, target id): values that compare
        equal share a rank, so ties fall to the target id — name order.
        """
        xsim_map = self.xsim_map
        n_rows = len(xsim_map.ptr) - 1
        usable = np.flatnonzero(xsim_map.xsim >= 1e-12)
        owner = np.searchsorted(xsim_map.ptr, usable, side="right") - 1
        target, value = xsim_map.target_ids[usable], xsim_map.xsim[usable]
        by_value = np.argsort(-value)
        ties = value[by_value]
        rank = np.empty(len(value), dtype=np.int64)
        rank[by_value] = np.cumsum(np.diff(ties, prepend=ties[:1]) != 0)
        # Unique, and inside int64 while rows · entries · targets < 2**63.
        order = np.argsort((owner * len(value) + rank) * len(xsim_map.targets) + target)
        owner, target, value = owner[order], target[order], value[order]
        counts = np.bincount(owner, minlength=n_rows)
        at = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
        keep = at < self.n_replacements
        ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.minimum(counts, self.n_replacements), out=ptr[1:])
        names = xsim_map.targets
        self._ranked = (ptr.tolist(), [names[t] for t in target[keep].tolist()],
                        value[keep].tolist())
        return self._ranked

    def replacement_for(self, source_item: str) -> str | None:
        """The single primary replacement (head of the set), or ``None``
        when the source item has no usable X-Sim candidate."""
        chosen = self.replacements_for(source_item)
        return chosen[0][0] if chosen else None

    def item_mapping(self, items: Iterable[str] | None = None) -> dict[str, str]:
        """Materialise the source → primary-replacement mapping.

        Args:
            items: restrict to these source items (default: every item in
                the X-Sim map).
        """
        targets = sorted(items) if items is not None else sorted(self.xsim_map)
        mapping = {}
        for item in targets:
            replacement = self.replacement_for(item)
            if replacement is not None:
                mapping[item] = replacement
        return mapping

    def alterego_profile(self, user: str,
                         source_profile: Mapping[str, Rating]) -> list[Rating]:
        """Build one user's AlterEgo ratings from her source profile.

        Each source rating fans out to its replacement set; collisions
        merge by weighted mean with the latest timestep, deterministically
        over sorted items.
        """
        builder = self.incremental(user)
        for source_item in sorted(source_profile):
            builder.add(source_profile[source_item])
        return builder.profile()

    def incremental(self, user: str) -> "IncrementalAlterEgo":
        """An incremental builder for *user* (§4.3: "AlterEgo profiles
        could be incrementally updated to avoid re-computations").

        Fold new source ratings in one at a time as they arrive; the
        merge state is O(profile) and each update touches only the new
        rating's replacement set. Folding a whole profile reproduces
        :meth:`alterego_profile` exactly (order-independent)."""
        return IncrementalAlterEgo(self, user)

    def _fold(self, state: dict[str, tuple[float, float, int]], rating: Rating) -> None:
        """Fold one source rating into a merge-state dict
        (target item → (Σ w·value, Σ w, max timestep))."""
        for replacement, weight in self.replacements_for(rating.item):
            if weight <= 0.0:
                continue
            total, weight_sum, timestep = state.get(
                replacement, (0.0, 0.0, rating.timestep))
            state[replacement] = (
                total + weight * rating.value,
                weight_sum + weight,
                max(timestep, rating.timestep))

    def alterego_table(self, users: Iterable[str], source_table: RatingTable,
                       target_table: RatingTable) -> RatingTable:
        """The augmented target table: real target ratings plus the
        AlterEgos of *users* (real ratings win on conflicts, footnote 6).

        Mapped values are clipped into the target scale (no re-rounding —
        the weighted mean is a legitimate estimate). Every user is folded
        at once over arrays; the result equals :meth:`alterego_profile`
        per user bit for bit (one ``(user, target)`` group's addends
        reach ``np.bincount`` — which adds sequentially — in sorted
        source-item order, the order the per-rating fold adds them in).
        The result is column-backed
        (:meth:`~repro.data.ratings.RatingTable.from_columns`, which
        checks scale and uniqueness over the arrays): no ``Rating`` is
        built for a mapped rating until something reads its dict views.
        Wall time per stage lands in ``alterego_stage_seconds``.
        """
        clock = time.perf_counter
        started = clock()
        users = sorted(set(users))
        # Source ratings as rows ordered (user, source item). A source
        # item's replacement set is taken on first use — users sorted,
        # then items sorted — which is the order the private policy has
        # always consumed its RNG in.
        slots: dict[str, int] = {}
        chosen: list[tuple[str, float]] = []
        set_ptr = [0]
        row_user: list[int] = []
        row_slot: list[int] = []
        row_rating: list[Rating] = []
        for position, user in enumerate(users):
            profile = source_table.user_profile(user)
            for item in sorted(profile):
                slot = slots.get(item)
                if slot is None:
                    slot = slots[item] = len(slots)
                    chosen.extend(self.replacements_for(item))
                    set_ptr.append(len(chosen))
                row_user.append(position)
                row_slot.append(slot)
                row_rating.append(profile[item])
        names = sorted({name for name, _ in chosen})
        ids = {name: position for position, name in enumerate(names)}
        set_target = np.asarray([ids[name] for name, _ in chosen], dtype=np.int64)
        set_weight = np.asarray([weight for _, weight in chosen], dtype=np.float64)
        set_start = np.asarray(set_ptr, dtype=np.int64)
        selected = clock()

        # One entry per (source rating, replacement), ordered (user,
        # source item, replacement rank); a stable sort by (user,
        # target) keeps that order inside each group. Weights are > 0
        # by construction (the 1e-12 floor, or the private policy's 1.0).
        slot = np.asarray(row_slot, dtype=np.int64)
        value = np.asarray([r.value for r in row_rating], dtype=np.float64)
        step = np.asarray([r.timestep for r in row_rating], dtype=np.int64)
        fan = set_start[slot + 1] - set_start[slot]
        row = np.repeat(np.arange(len(slot)), fan)
        entry = (np.arange(len(row)) - np.repeat(np.cumsum(fan) - fan, fan)
                 + set_start[slot][row])
        key = (np.asarray(row_user, dtype=np.int64)[row] * len(names)
               + set_target[entry])
        order = np.argsort(key, kind="stable")
        key, row, weight = key[order], row[order], set_weight[entry[order]]
        first = np.diff(key, prepend=-1) != 0
        head = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        total = np.bincount(group, weights=weight * value[row])
        weight_sum = np.bincount(group, weights=weight)
        latest = np.maximum.reduceat(step[row], head)
        mapped = np.clip(total / weight_sum, *target_table.scale)
        # One code space for the real rows and the fold's groups — the
        # target table's, grown by the ids only a group has. Footnote 6
        # is then an isin over (user, item) pair keys.
        real = target_table.columns()
        group_user, group_item = np.divmod(key[head], len(names))
        all_users, user_code = _interned(real.users, users, group_user)
        all_items, item_code = _interned(real.items, names, group_item)
        keep = ~np.isin(user_code * len(all_items) + item_code,
                        real.user_codes * len(all_items) + real.item_codes)
        folded = clock()

        # Real rows, then the kept additions in (user, target) order.
        table = RatingTable.from_columns(RatingColumns(
            all_users, all_items,
            np.concatenate((real.user_codes, user_code[keep])),
            np.concatenate((real.item_codes, item_code[keep])),
            np.concatenate((real.values, mapped[keep])),
            np.concatenate((real.timesteps, latest[keep]))), target_table.scale)
        observe_stage_seconds("alterego", {
            "select": selected - started, "fold": folded - selected,
            "table": clock() - folded})
        return table


class IncrementalAlterEgo:
    """Streaming AlterEgo builder (one user).

    Keeps the weighted-merge state so that a newly arrived source rating
    updates the AlterEgo in O(R) instead of re-walking the whole source
    profile — the paper's §4.3 incremental-update remark made concrete.
    The produced profile is identical to the batch
    :meth:`AlterEgoGenerator.alterego_profile`, whatever the arrival
    order.
    """

    def __init__(self, generator: AlterEgoGenerator, user: str) -> None:
        self._generator = generator
        self.user = user
        self._state: dict[str, tuple[float, float, int]] = {}
        self._seen: set[str] = set()

    def add(self, rating: Rating) -> None:
        """Fold one new source rating into the AlterEgo.

        Re-adding the same source item raises
        :class:`~repro.errors.ConfigError` — a user rates an item once,
        and silently double-counting a replacement would corrupt the
        weighted means.
        """
        if rating.item in self._seen:
            raise ConfigError(
                f"source item {rating.item!r} already folded into "
                f"{self.user!r}'s AlterEgo")
        self._seen.add(rating.item)
        self._generator._fold(self._state, rating)

    def profile(self) -> list[Rating]:
        """The current AlterEgo ratings (sorted by target item)."""
        return [
            Rating(self.user, item, total / weight_sum, timestep)
            for item, (total, weight_sum, timestep)
            in sorted(self._state.items())
            if weight_sum > 0.0]

    def current(self, item: str) -> Rating | None:
        """The current mapped rating for one target *item* (``None``
        when nothing maps there yet) — what the online updater reads
        after a fold instead of rebuilding the whole profile."""
        state = self._state.get(item)
        if state is None:
            return None
        total, weight_sum, timestep = state
        if weight_sum <= 0.0:
            return None
        return Rating(self.user, item, total / weight_sum, timestep)

    def __len__(self) -> int:
        return len(self._state)


class OnlineAlterEgoUpdater:
    """Streams newly arrived source ratings into the augmented target
    table — the serving-side half of §4.3's incremental-update remark.

    The offline pipeline builds the augmented table once
    (:meth:`AlterEgoGenerator.alterego_table`). When a user then rates
    a new source item online, this updater folds the rating into her
    :class:`IncrementalAlterEgo` (seeded lazily from her source profile
    as of construction), tracks which mapped target ratings changed,
    and applies them as one small batch:
    :meth:`flush` derives the augmented table through
    :meth:`~repro.data.ratings.RatingTable.with_ratings`, whose delta
    handoff appends to the table's memoized
    :class:`~repro.data.matrix.MatrixRatingStore` instead of rebuilding
    it. The flushed batch refreshes the *CF serving table only* —
    mapped AlterEgo ratings never enter the Baseliner's graph (``G_ac``
    is computed over real source ∪ target data); to keep an incremental
    baseline in step, hand the **observed source ratings** to
    :meth:`~repro.core.baseliner.Baseliner.update` instead.

    Invariants (tested in ``tests/test_incremental.py``): after any
    observe/flush sequence, the augmented table equals the batch
    :meth:`~AlterEgoGenerator.alterego_table` run over the extended
    source profiles — real target-domain ratings keep precedence
    (footnote 6), mapped values are clipped into the target scale, and
    re-observing a source item a user already rated raises.

    Args:
        generator: the fitted Generator (its memoised replacement sets
            make online folds O(R)).
        source_table: the users' source-domain profiles as of fit time.
        target_table: the *real* target-domain table (precedence set).
        augmented: the current augmented table (defaults to
            *target_table*; pass the pipeline's ``augmented_target`` to
            continue from a fitted pipeline).
    """

    def __init__(self, generator: AlterEgoGenerator,
                 source_table: RatingTable,
                 target_table: RatingTable,
                 augmented: RatingTable | None = None) -> None:
        self.generator = generator
        self._source = source_table
        self._target = target_table
        self._augmented = augmented if augmented is not None else target_table
        self._builders: dict[str, IncrementalAlterEgo] = {}
        self._dirty: dict[str, set[str]] = {}

    @property
    def augmented(self) -> RatingTable:
        """The augmented target table as of the last :meth:`flush`."""
        return self._augmented

    def _builder(self, user: str) -> IncrementalAlterEgo:
        builder = self._builders.get(user)
        if builder is None:
            builder = self.generator.incremental(user)
            profile = self._source.user_profile(user)
            for item in sorted(profile):
                builder.add(profile[item])
            self._builders[user] = builder
        return builder

    def observe(self, rating: Rating) -> list[str]:
        """Fold one newly arrived source rating into its user's
        AlterEgo; returns the target items whose mapped value moved
        (empty when the source item has no usable replacement)."""
        self._builder(rating.user).add(rating)
        changed = [item for item, weight
                   in self.generator.replacements_for(rating.item)
                   if weight > 0.0]
        if changed:
            self._dirty.setdefault(rating.user, set()).update(changed)
        return changed

    def pending(self) -> int:
        """Dirty (user, target item) entries awaiting a flush."""
        return sum(len(items) for items in self._dirty.values())

    def flush(self) -> tuple[RatingTable, list[Rating]]:
        """Apply the pending AlterEgo changes as one rating batch.

        Returns ``(augmented, batch)``: the new augmented table (derived
        with the store delta handoff) and the exact mapped ratings
        appended / overridden — what a CF recommender over the
        augmented table should be refreshed with. These are synthetic
        target-domain ratings: do **not** feed them to
        :meth:`~repro.core.baseliner.Baseliner.update` (the baseline
        graph is computed over real data; it takes the observed source
        ratings instead).
        """
        batch: list[Rating] = []
        for user in sorted(self._dirty):
            real_items = self._target.user_items(user)
            builder = self._builders[user]
            for item in sorted(self._dirty[user]):
                if item in real_items:
                    continue  # footnote 6: real ratings win
                mapped = builder.current(item)
                if mapped is None:
                    continue
                value = self._target.clip(mapped.value)
                batch.append(Rating(user, item, value, mapped.timestep))
        self._dirty.clear()
        if batch:
            self._augmented = self._augmented.with_ratings(batch)
        return self._augmented, batch
