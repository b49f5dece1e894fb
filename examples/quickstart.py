"""Quickstart: what you might like to read after watching Interstellar.

Runs the full X-Map pipeline on the paper's Figure 1(a) scenario — five
users, three movies, three books, one straddler (Cecilia) — and shows
that Alice, who never rated a book, gets book recommendations driven by
the meta-path  Interstellar —Bob→ Inception —Cecilia→ The Forever War.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import NXMapRecommender, XMapConfig
from repro.data.synthetic import interstellar_scenario


def main() -> None:
    scenario = interstellar_scenario()
    movies, books = scenario.source, scenario.target

    print("The Figure 1(a) scenario:")
    for user in sorted(scenario.source.users | scenario.target.users):
        rated = [movies.title_of(i) for i in movies.ratings.user_items(user)]
        rated += [books.title_of(i) for i in books.ratings.user_items(user)]
        print(f"  {user:8s} rated: {', '.join(sorted(rated))}")

    # Eq 6 over the merged domains: Interstellar's row of the item
    # similarity index. No edge to The Forever War means similarity 0.
    store = scenario.merged().matrix()
    neighbors, weights = store.neighbor_index().row(store.item_index["interstellar"])
    edge = neighbors == store.item_index["forever-war"]
    standard = float(weights[edge][0]) if edge.any() else 0.0
    print(f"\nStandard similarity(Interstellar, The Forever War) = "
          f"{standard:g}  <- no common rater, no signal")

    recommender = NXMapRecommender(XMapConfig(prune_k=3, cf_k=5))
    recommender.fit(scenario)

    xsim = recommender.xsim_map["interstellar"]["forever-war"]
    print(f"X-Sim(Interstellar, The Forever War)              = "
          f"{xsim:.4f}  <- via the Bob/Cecilia meta-path")

    print("\nItem mapping (source movie -> replacement book):")
    for movie, book in recommender.item_mapping().items():
        print(f"  {movies.title_of(movie):14s} -> {books.title_of(book)}")

    print("\nAlice has never rated a book. Her recommendations:")
    for book, score in recommender.recommend("alice", n=3):
        print(f"  {books.title_of(book):16s} predicted {score:.2f}")


if __name__ == "__main__":
    main()
