"""Exception hierarchy for the X-Map reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Each subclass documents the subsystem that raises it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class DataError(ReproError):
    """Invalid or inconsistent rating data (bad values, unknown ids)."""


class DomainError(DataError):
    """An operation referenced a domain that the dataset does not define,
    or mixed items across domains where a single domain was required."""


class ConfigError(ReproError):
    """A configuration object failed validation."""


class SimilarityError(ReproError):
    """Similarity computation was asked for items/users with no data."""


class GraphError(ReproError):
    """The similarity graph or its layer partition is inconsistent."""


class PrivacyError(ReproError):
    """A differential-privacy mechanism received an invalid budget or
    sensitivity (e.g. epsilon <= 0)."""


class EngineError(ReproError):
    """The simulated cluster was given invalid input (e.g. no machines,
    a negative cost or a negative task duration)."""


class EvaluationError(ReproError):
    """An evaluation protocol could not be applied to the given dataset
    (e.g. no overlapping users to hide)."""


class ServingError(ReproError):
    """The serving subsystem was driven incorrectly (corrupt or
    incompatible snapshot directories, publishing to a retired registry
    version)."""


class DurabilityError(ReproError):
    """The durability layer was driven incorrectly (invalid write-ahead
    log configuration, appending to a readonly log, recovering a
    directory that holds no durable store)."""


class StaleModelError(ServingError):
    """A version-pinned request required a model version the local
    registry has not converged on yet (the gateway's version handshake
    turns this into a refresh-and-retry, never a torn response)."""

    def __init__(self, version: int, min_version: int) -> None:
        super().__init__(
            f"the pinned model is at version {version} but the request "
            f"requires at least version {min_version}"
        )
        self.version = version
        self.min_version = min_version


class GatewayError(ReproError):
    """The networked serving tier failed a request (no live worker,
    worker death exhausted the retry budget, malformed wire frames)."""
