"""The four workloads; each module exposes ``run(ctx) -> Result``."""
