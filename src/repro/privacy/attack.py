"""Empirical straddler re-identification attack (§1.2's threat model).

The paper motivates privacy with a curious user who, observing
cross-domain recommendations, infers which items (and hence which
straddlers' co-ratings) produced them. Against the *non-private* mapping
this is easy: the NX-Map replacement function is deterministic, so an
adversary holding the X-Sim map inverts it exactly. Against PRS the
replacement is a sample from the exponential mechanism, so the
adversary's best guess (maximum-likelihood: the candidate whose argmax
replacement matches the observation) succeeds with bounded advantage.

:func:`reidentification_rate` measures that success rate empirically —
used by tests and the privacy experiment to show the obfuscation working
and to exhibit the ε → accuracy trade-off from the attacker's side.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import PrivacyError
from repro.privacy.prs import private_replacement


def optimal_replacements(xsim_map: Mapping[str, Mapping[str, float]],
                         ) -> dict[str, str]:
    """The adversary's reference model: argmax X-Sim per source item
    (identical to NX-Map's deterministic replacement choice)."""
    best: dict[str, str] = {}
    for source, candidates in xsim_map.items():
        if candidates:
            best[source] = min(candidates, key=lambda t: (-candidates[t], t))
    return best


def reidentification_rate(xsim_map: Mapping[str, Mapping[str, float]],
                          epsilon: float, trials: int,
                          rng: np.random.Generator) -> float:
    """Fraction of PRS draws the argmax-adversary identifies correctly.

    For each trial and each source item, PRS draws a private replacement;
    the adversary guesses the item whose argmax replacement equals the
    draw (ties broken by X-Sim). With ε → ∞ the rate approaches 1
    (PRS degenerates to argmax, i.e. NX-Map); with small ε it approaches
    chance level. Tests assert this monotone behaviour. Each source's
    row of *xsim_map* is read once, whatever *trials* is.
    """
    if trials <= 0:
        raise PrivacyError(f"trials must be positive, got {trials}")
    rows = {s: cands for s, cands in sorted(xsim_map.items()) if cands}
    if not rows:
        raise PrivacyError("xsim_map has no mappable source items")
    reference = optimal_replacements(rows)
    hits = 0
    total = 0
    for _ in range(trials):
        for source, candidates in rows.items():
            drawn = private_replacement(candidates, epsilon, rng)
            hits += int(drawn == reference[source])
            total += 1
    return hits / total
