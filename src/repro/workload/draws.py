"""Cheap per-decision draws, draw-for-draw equal to ``Generator.choice``.

Every generated event makes one or two categorical decisions (which
template, which focus object, which background object).  ``Generator.choice``
answers each with about 6 us of argument conversion and validation around a
single draw: for ``choice(n, p=p)`` one ``random()`` searched
(``side="right"``) in ``p.cumsum() / p.cumsum()[-1]``, for ``choice(ids)`` one
``integers(0, len(ids))``.  The helpers here make exactly that draw against a
cdf built once per weight vector, so a trace is byte-identical to one drawn
with ``choice`` and the generator state afterwards is the same.  The
validation ``choice`` repeated on every call (finite, non-negative, positive
total) happens once, where the cdf is built.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence, Tuple, TypeVar

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")


@lru_cache(maxsize=256)
def weight_cdf(weights: Tuple[float, ...]) -> Tuple[float, ...]:
    """The cdf ``Generator.choice`` searches for ``p = weights / sum(weights)``.

    Raises ``ValueError`` for an empty vector or a NaN, infinite, negative or
    all-zero weight -- the inputs ``choice`` rejected on every call.
    """
    import numpy as np

    raw = np.array(weights, dtype=float)
    if raw.size == 0:
        raise ValueError("weights must be non-empty")
    if not np.isfinite(raw).all():
        raise ValueError("weights contain NaN or infinity")
    if (raw < 0).any():
        raise ValueError("weights are not non-negative")
    total = raw.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    cdf = (raw / total).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def zipf_cdf(count: int, exponent: float) -> Tuple[float, ...]:
    """The cdf of Zipf weights ``1 / rank ** exponent`` over ``count`` ranks."""
    import numpy as np

    ranks = np.arange(1, count + 1, dtype=float)
    return weight_cdf(tuple((1.0 / np.power(ranks, exponent)).tolist()))


def weighted_index(cdf: Sequence[float], rng: np.random.Generator) -> int:
    """One index, drawn as ``Generator.choice`` draws one of ``len(cdf)`` with ``p``."""
    return bisect_right(cdf, rng.random())


def uniform_pick(items: Sequence[T], rng: np.random.Generator) -> T:
    """One element, drawn as ``Generator.choice`` draws one of ``items``."""
    return items[int(rng.integers(0, len(items)))]
