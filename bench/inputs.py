"""Every benchmark input, made from the seed and nothing else.

The traces are ``repro.data.synthetic.amazon_like`` — two domains,
Zipf-skewed item popularity (``popularity_skew=1.4``), the paper's data
shape — never uniform-random ratings. Sizes are fixed here so that a
run's cost depends on the code under test, not on its arguments.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.ratings import Rating, RatingTable
    from repro.data.synthetic import SyntheticConfig

#: ratings per ingest batch (both shapes).
BATCH_SIZE = 8
#: head users / head items a ``heavy`` batch draws from.
HEAD_USERS = 64
HEAD_ITEMS = 50
#: share of the catalogue (by popularity) an ``onboard`` batch avoids,
#: so its blast radius stays small.
ONBOARD_SKIP_HEAD_SHARE = 0.10
#: the ingest shape cycle: two small-radius batches per full-radius
#: one, so the median is an onboard batch and the p90 a heavy one.
SHAPE_CYCLE = ("onboard", "onboard", "heavy")

HOT_USERS = 64
HOT_SHARE = 0.9
HOT_ZIPF_EXPONENT = 1.1
TOP_N = 10


def trace_s_config(seed: int) -> "SyntheticConfig":
    """The offline-fit trace (~10k ratings, 630 users, 800 items)."""
    from repro.data.synthetic import SyntheticConfig, scaled

    return replace(scaled(SyntheticConfig(ratings_per_user=15), 1), seed=seed)


def trace_l_config(seed: int) -> "SyntheticConfig":
    """The ingest/serving trace (~105k ratings, ~3.1k users, ~3.5k items)."""
    from repro.data.synthetic import SyntheticConfig, scaled

    return replace(scaled(SyntheticConfig(ratings_per_user=30), 5), seed=seed)


class BatchPlan:
    """Ingest batches of the two shapes over one rating table.

    ``onboard`` is a brand-new user rating :data:`BATCH_SIZE` items
    spread evenly over the popularity tail (a few hundred adjacency
    rows move); ``heavy`` is eight existing head users each (re-)rating
    one head item (every row moves). Which ranks a batch touches is
    fixed by its position in the run, so every seed pays for the same
    blast radius; only the rating values are drawn.
    """

    def __init__(self, table: "RatingTable", seed: int) -> None:
        self._rng = random.Random(seed)
        by_size = sorted(table.users,
                         key=lambda u: (-len(table.user_profile(u)), u))
        by_popularity = sorted(table.items,
                               key=lambda i: (-len(table.item_profile(i)), i))
        self.head_users = by_size[:HEAD_USERS]
        self.head_items = by_popularity[:HEAD_ITEMS]
        skip = int(len(by_popularity) * ONBOARD_SKIP_HEAD_SHARE)
        self.tail_items = by_popularity[skip:]
        self._made = {"onboard": 0, "heavy": 0}
        self._timestep = 1_000_000

    def shape_of(self, k: int) -> str:
        return SHAPE_CYCLE[k % len(SHAPE_CYCLE)]

    def batch(self, shape: str) -> "list[Rating]":
        from repro.data.ratings import Rating

        k = self._made[shape]
        self._made[shape] += 1
        self._timestep += 1
        if shape == "onboard":
            stride = len(self.tail_items) // BATCH_SIZE
            pairs = [(f"n{k:06d}",
                      self.tail_items[(j * stride + k * 13) % len(self.tail_items)])
                     for j in range(BATCH_SIZE)]
        elif shape == "heavy":
            pairs = [(self.head_users[(k * BATCH_SIZE + j) % len(self.head_users)],
                      self.head_items[(k * 5 + j * 3) % len(self.head_items)])
                     for j in range(BATCH_SIZE)]
        else:
            raise ValueError(f"unknown batch shape {shape!r}")
        return [Rating(user, item, float(self._rng.randint(1, 5)), self._timestep)
                for user, item in pairs]


def user_permutation(users: list[str], seed: int) -> list[str]:
    """A fixed seeded visiting order over all users (``serve_cold``
    cycles through it, so no user repeats within one lap)."""
    order = sorted(users)
    random.Random(seed).shuffle(order)
    return order


def poisson_schedule(rate_qps: float, duration_s: float, seed: int) -> list[float]:
    """Due times (seconds from the rung start) of a Poisson arrival
    process at *rate_qps* over *duration_s*."""
    rng = random.Random(seed)
    due: list[float] = []
    clock = rng.expovariate(rate_qps)
    while clock < duration_s:
        due.append(clock)
        clock += rng.expovariate(rate_qps)
    return due


def hot_users(users: list[str], seed: int) -> list[str]:
    """The seeded hot set, hottest first."""
    population = sorted(users)
    return random.Random(seed).sample(population, min(HOT_USERS, len(population)))


def zipf_hot_draws(users: list[str], n: int, seed: int, draw_seed: int) -> list[str]:
    """*n* request targets: :data:`HOT_SHARE` of them Zipf-distributed
    over ``hot_users(users, seed)``, the rest uniform over all users;
    *draw_seed* varies the draws (one per rung) over one hot set."""
    population = sorted(users)
    hot = hot_users(users, seed)
    weights = [1.0 / (rank + 1) ** HOT_ZIPF_EXPONENT for rank in range(len(hot))]
    rng = random.Random(draw_seed)
    hot_draws = iter(rng.choices(hot, weights, k=n))
    return [next(hot_draws) if rng.random() < HOT_SHARE else rng.choice(population)
            for _ in range(n)]
