"""The random generators in helpers.py.

Claims:
    - random_signed and random_mixed give every seeded caller the vector
      the unbounded redraw loop gave, as each draw makes the same rng
      calls
    - bounds that no draw meets raise ValueError after MAX_DRAWS draws,
      naming the bound, instead of redrawing forever
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import MIXED_DENOMINATORS, grid, random_mixed, random_signed

from jtx import TreeVector


def _unbounded_signed(rng, max_depth=4, max_ran=11, density=0.5, max_abs=3, max_den=4):
    choices = [k for k in range(-max_abs, max_abs + 1) if k != 0]
    while True:
        support = [p for p in grid(max_depth) if rng.random() < density]
        if not support:
            continue
        q = rng.randint(1, max_den)
        x = TreeVector.from_dict({p: Fraction(rng.choice(choices), q) for p in support})
        if len(x.range()) <= max_ran:
            return x


def _unbounded_mixed(rng, max_depth=4, max_ran=11, signed=False):
    while True:
        support = [p for p in grid(rng.randint(1, max_depth)) if rng.random() < 0.5]
        x = TreeVector.from_dict(
            {
                p: Fraction(
                    rng.randint(1, 9) * (rng.choice((-1, 1)) if signed else 1),
                    rng.choice(MIXED_DENOMINATORS),
                )
                for p in support
            }
        )
        if support and len(x.range()) <= max_ran:
            return x


@pytest.mark.parametrize("bounded, unbounded, kwargs", [
    (random_signed, _unbounded_signed, {}),
    (random_signed, _unbounded_signed, {"max_depth": 5, "max_ran": 20, "density": 0.3}),
    (random_mixed, _unbounded_mixed, {}),
    (random_mixed, _unbounded_mixed, {"signed": True}),
], ids=["signed", "signed-sparse", "mixed", "mixed-signed"])
def test_seeded_draws_match_the_unbounded_loop(bounded, unbounded, kwargs):
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        assert bounded(rng, **kwargs) == unbounded(ref, **kwargs)
        assert rng.getstate() == ref.getstate()


def test_unmeetable_signed_bound_raises():
    """A dense depth-5 support almost never has a range of 24 nodes or fewer."""
    with pytest.raises(ValueError, match="max_ran=24"):
        random_signed(random.Random(0), max_depth=5, max_ran=24, density=0.6)


def test_unmeetable_mixed_bound_raises():
    """A nonempty support has a nonempty range."""
    with pytest.raises(ValueError, match="max_ran=0"):
        random_mixed(random.Random(0), max_ran=0)
