"""Cheap per-event draws, draw-for-draw equal to ``Generator``'s own.

``Generator`` spends most of a scalar draw on argument handling and locking
around one C call.  :class:`Draws` makes that C call through the bit
generator's public ``ctypes`` interface on the same state: ``random()`` is
``next_double``, ``integers(low, high)`` Lemire's method over ``next_uint32``
(the buffered upper half of a 64-bit output included), so values and the
generator state afterwards are identical.  ``lognormal``, ``poisson``,
``shuffle`` and one-off draws stay on :attr:`Draws.generator`.

The categorical helpers make ``Generator.choice``'s draw against a cdf built
once per weight vector: for ``choice(n, p=p)`` one ``random()`` searched
(``side="right"``) in ``p.cumsum() / p.cumsum()[-1]``, for ``choice(ids)`` one
``integers(0, len(ids))``.  The validation ``choice`` repeats on every call
happens once, where the cdf is built.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Sequence, Tuple, TypeVar, Union

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")


class Draws:
    """``Generator.random()`` and ``integers(low, high)`` at C-call cost, lock-free.

    The C functions take a raw state address, so a ``Draws`` keeps its
    ``Generator`` referenced; one thread at a time uses a generator.
    """

    __slots__ = ("generator", "random", "_next_uint32")

    def __init__(self, generator: np.random.Generator) -> None:
        interface = generator.bit_generator.ctypes
        self.generator = generator
        self.random = partial(interface.next_double, interface.state_address)
        self._next_uint32 = partial(interface.next_uint32, interface.state_address)

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` for a span of 1 to 2**32, as an ``int``."""
        span = high - low
        if span == 1:
            return low  # numpy returns ``low`` without a draw
        if not 1 < span <= 0x100000000:
            raise ValueError(f"integers({low}, {high}) needs 1 <= high - low <= 2**32")
        # Lemire's method, as numpy's ``buffered_bounded_lemire_uint32``.
        product = self._next_uint32() * span
        if (product & 0xFFFFFFFF) < span:
            threshold = (0x100000000 - span) % span
            while (product & 0xFFFFFFFF) < threshold:
                product = self._next_uint32() * span
        return low + (product >> 32)


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


def weighted_index(cdf: Sequence[float], rng: Union[Draws, np.random.Generator]) -> int:
    """One index, drawn as ``Generator.choice`` draws one of ``len(cdf)`` with ``p``."""
    return bisect_right(cdf, rng.random())


def uniform_pick(items: Sequence[T], rng: Union[Draws, np.random.Generator]) -> T:
    """One element, drawn as ``Generator.choice`` draws one of ``items``."""
    return items[rng.integers(0, len(items))]
