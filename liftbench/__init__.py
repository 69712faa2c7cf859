"""Seeded benchmark of the liftlyap pipeline; see run.py."""
