"""Seeded input generators for the three benchmark workloads.

Every generator takes the benchmark seed and a size, and returns plain
arrays or writes a plain file; the package under test only ever sees
these generated inputs.  Expected values are derived here without going
through persistick.ingest, so the output checks test ingest against
independent ground truth.
"""

from __future__ import annotations

import numpy as np

from persistick.oracle import gen_random_walk

WEEK_NS = 7 * 24 * 3600 * 10**9
SPAN_NS = 52 * WEEK_NS
# 2023-01-02T00:00:00Z, a Monday.
EPOCH_START_NS = 1_672_617_600 * 10**9

# Quote prices are written with 5 decimals and quantized to a 0.0001 tick,
# so one tick is 10 price units and a mid is (bid + ask) / 20 ticks.
TICK = "0.0001"
UNITS_PER_TICK = 10
PRICE_DECIMALS = 5
_CHUNK_ROWS = 50_000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def spread_times(n: int, seed: int, step_ns: int = 1) -> np.ndarray:
    """n non-decreasing timestamps, first and last pinned to the 52-week span.

    Pinning both ends fixes the span, so the rolling window count does not
    depend on the seed.  Times are multiples of step_ns.
    """
    slots = SPAN_NS // step_ns
    t = np.sort(_rng(seed, 1).integers(0, slots + 1, size=n, dtype=np.int64))
    t[0] = 0
    t[-1] = slots
    return EPOCH_START_NS + t * step_ns


def mid_ticks(bid_units: np.ndarray, ask_units: np.ndarray) -> np.ndarray:
    """Round half-to-even of (bid + ask) / (2 * tick), in integer arithmetic."""
    q, r = np.divmod(bid_units + ask_units, 2 * UNITS_PER_TICK)
    up = (r > UNITS_PER_TICK) | ((r == UNITS_PER_TICK) & (q % 2 == 1))
    return q + up


def _format_prices(units: np.ndarray) -> list[str]:
    scale = 10**PRICE_DECIMALS
    whole, frac = np.divmod(units, scale)
    return [f"{w}.{f:05d}" for w, f in zip(whole.tolist(), frac.tolist())]


def write_quotes(path: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Write an n-row time,bid,ask quote file; return (times_ns, mid_ticks).

    Timestamps are ISO-8601 with microseconds and a Z suffix, spread over
    52 weeks.  The bid follows a Gaussian walk of 3 ticks per row from
    5.00000 and the spread is 1 to 30 price units, so about one mid in
    twenty lies exactly half a tick between two ticks.
    """
    rng = _rng(seed, 2)
    steps = np.rint(rng.normal(0.0, 3.0 * UNITS_PER_TICK, size=n)).astype(np.int64)
    steps[0] = 0
    bid = 5 * 10**PRICE_DECIMALS + np.cumsum(steps)
    if n and int(bid.min()) <= 0:
        raise ValueError("generated bid walk reached zero; the start price is too low")
    ask = bid + rng.integers(1, 31, size=n, dtype=np.int64)
    times_ns = spread_times(n, seed, step_ns=1000)
    with open(path, "w", newline="") as f:
        for a in range(0, n, _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, n)
            stamps = np.datetime_as_string(
                times_ns[a:b].astype("datetime64[ns]").astype("datetime64[us]"),
                unit="us",
                timezone="UTC",
            )
            f.write(
                "".join(
                    f"{s},{bp},{ap}\n"
                    for s, bp, ap in zip(
                        stamps.tolist(), _format_prices(bid[a:b]), _format_prices(ask[a:b])
                    )
                )
            )
    return times_ns, mid_ticks(bid, ask)


def gauss_walk(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian tick walk (sigma 3 ticks) on random times over 52 weeks."""
    _, values = gen_random_walk(n, seed=seed, kind="gauss", sigma=3.0)
    return spread_times(n, seed), values


def plateau_walk(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """+-1 tick walk with 30 % zero steps, one sample per time unit."""
    return gen_random_walk(n, seed=seed, kind="pm1", zero_prob=0.3)
