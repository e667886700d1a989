"""Determinism sources at the bottom of the fixture call chains."""

import random
import time


def _fresh_rng():
    """A raw, unseeded-discipline RNG (flagged by DET001 at the import)."""
    return random.Random(1234)


def stamp():
    """A wall-clock read (DET002)."""
    return time.time()
