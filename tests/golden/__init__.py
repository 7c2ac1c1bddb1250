"""Golden decision digests: every policy's seeded decisions, pinned."""
