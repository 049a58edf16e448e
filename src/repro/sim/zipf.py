"""Deterministic rejection-free Zipf key sampling for skewed workloads.

Serving workloads are not uniform: a KV tier in front of a million
clients sees a hot head (a few keys take most of the traffic) and a cold
tail.  :class:`ZipfSampler` draws ranks ``0..n-1`` with
``P(rank i) ∝ 1/(i+1)**theta`` using the Gray et al. transform
popularised by YCSB: one precompute of the generalised harmonic number
``zetan`` (cached per ``(n, theta)``), then **O(1) per draw with no
rejection loop** — every call consumes exactly one uniform variate, which
keeps the draw count (and therefore the DES event schedule) a pure
function of the seed.

``zetan`` costs O(min(n, 4096)).  Up to 4096 keys it is the plain
sequential sum.  Beyond that, the terms ``i < 4096`` are summed the same
way and the tail ``i = 4096..n`` is closed by Euler–Maclaurin (integral,
endpoint average, B2 and B4 corrections).  The truncation error is below
the rounding of the sequential sum: the two differ by under 4e-14
relative at n = 10**6, and a million-key sampler builds in under a
millisecond.

Ranks 0 and 1 are exact (``P(0) = 1/zetan``, ``P(1) = 0.5**theta /
zetan``); the remaining ranks use the continuous approximation of the
discrete CDF, accurate to a few percent — the standard YCSB trade for
rejection-free draws.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional

__all__ = ["ZipfSampler"]

#: Keys summed term by term; the rest of ``zetan`` is a closed-form tail.
_ZETA_HEAD = 4096


@lru_cache(maxsize=32)
def _zetan(n: int, theta: float) -> float:
    """Generalised harmonic number ``sum_{i=1..n} i**-theta``."""
    if n <= _ZETA_HEAD:
        return sum(pow(i, -theta) for i in range(1, n + 1))
    head = sum(pow(i, -theta) for i in range(1, _ZETA_HEAD))
    # Euler-Maclaurin for sum_{i=a..b} f(i) with f(x) = x**-theta: the
    # integral, (f(a) + f(b)) / 2, then the B2/2! f' and B4/4! f''' terms.
    a, b = float(_ZETA_HEAD), float(n)
    s = 1.0 - theta
    integral = (pow(b, s) - pow(a, s)) / s
    ends = (pow(a, -theta) + pow(b, -theta)) / 2.0
    d1 = -theta * (pow(b, -theta - 1.0) - pow(a, -theta - 1.0))
    d3 = (-theta * (theta + 1.0) * (theta + 2.0)
          * (pow(b, -theta - 3.0) - pow(a, -theta - 3.0)))
    return head + integral + ends + d1 / 12.0 - d3 / 720.0


class ZipfSampler:
    """Seeded Zipf(``theta``) rank sampler over ``n`` keys.

    ``theta`` in ``[0, 1)``: 0 is uniform, 0.99 is the YCSB default
    (heavily skewed).  Draws come from the sampler's own seeded
    ``random.Random`` unless an explicit ``rng`` is passed to
    :meth:`sample` — the form a driver ``make_request`` hook uses, so
    key choice rides on the driver's deterministic request RNG::

        zipf = ZipfSampler(1_000_000, theta=0.99)

        def make_request(rng, index):
            key = zipf.sample(rng)
            ...
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 1):
        if n < 1:
            raise ValueError("need at least one key")
        if not 0.0 <= theta < 1.0:
            raise ValueError(
                f"theta {theta} outside [0, 1) (the rejection-free "
                "transform needs alpha = 1/(1-theta) finite)"
            )
        self.n = n
        self.theta = theta
        self.zetan = _zetan(n, theta)
        self._rng = random.Random(seed)
        if n > 2:
            self._alpha = 1.0 / (1.0 - theta)
            zeta2 = 1.0 + pow(0.5, theta)
            self._eta = ((1.0 - pow(2.0 / n, 1.0 - theta))
                         / (1.0 - zeta2 / self.zetan))
            self._half_pow = pow(0.5, theta)

    def probability(self, rank: int) -> float:
        """Analytic ``P(rank)`` — the reference the sampler approximates."""
        if not 0 <= rank < self.n:
            raise ValueError(f"rank {rank} outside [0, {self.n})")
        return pow(rank + 1, -self.theta) / self.zetan

    def sample(self, rng: Optional[random.Random] = None) -> int:
        """One rank draw; exactly one uniform variate, no rejection."""
        u = (rng or self._rng).random()
        if self.n == 1:
            return 0
        if self.n == 2:
            # The eta transform degenerates at n=2 (its denominator is
            # zero); the two-point distribution is drawn directly.
            return 0 if u * self.zetan < 1.0 else 1
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + self._half_pow:
            return 1
        rank = int(self.n * pow(self._eta * u - self._eta + 1.0, self._alpha))
        return min(rank, self.n - 1)
