"""A fixed piece of reference work that gauges the CPU's current speed.

The benchmark runs on a shared machine whose CPU speed drifts by up to
2x over seconds to minutes. Every timing is therefore taken together
with the time of this fixed work in the same process, just before and
just after, and reported scaled to a machine on which the reference work
takes ``REFERENCE_S``. A slower phase of the machine lengthens both
times alike and cancels; a slower program lengthens only its own.

The work mixes what flapwear itself does: JSON decoding, dict and list
building, a pure-Python argmax loop, string formatting and small numpy
array operations. It depends on nothing in flapwear.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Seconds the reference work takes on the reference machine; any fixed
# value works, as long as it never changes between the commits compared.
REFERENCE_S = 0.05

_RECORDS = json.dumps(
    [{"image_id": f"img-{i:04d}", "stage": "profile", "probs": [(i % 7) / 10, 0.25, (7 - i % 7) / 10]}
     for i in range(250)]
)


def _python_part() -> int:
    acc = 0
    for _ in range(60):
        by_image = {}
        for rec in json.loads(_RECORDS):
            probs = rec["probs"]
            best = 0
            for i, p in enumerate(probs):
                if p > probs[best]:
                    best = i
            by_image[rec["image_id"]] = (rec["stage"], best, f"{probs[best]:.4f}")
        acc += sum(best for _, best, _ in by_image.values())
    return acc


def _numpy_part() -> float:
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(2):
        draws = rng.random(40_000)
        picks = np.searchsorted(np.cumsum(draws), draws * draws.sum())
        acc += float(np.bincount(picks % 11, minlength=11).argmax())
    return acc


def reference_time() -> float:
    """Seconds the reference work takes now, in this process."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0
