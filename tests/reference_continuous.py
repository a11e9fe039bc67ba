"""Reference contract splice: one Sample at a time, with bisect at each roll.

This is the per-sample build_continuous that ingest.build_continuous
replaces with int64 columns and np.searchsorted.  It works on Python ints,
so it has no int64 range to leave, and it takes each contract as given:
the tests compare the columnar splice with it where both apply.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from datetime import date
from typing import Sequence

from persistick.core import Sample
from persistick.ingest import CalendarError, RollRule, SpliceError


def build_continuous_by_sample(
    contract_series: Sequence[tuple[str, Sequence[Sample]]],
    rule: RollRule,
) -> list[Sample]:
    expiries = dict(rule.calendar)
    chain: list[tuple[str, Sequence[Sample], date]] = []
    for cid, samples in contract_series:
        if cid not in expiries:
            raise CalendarError(f"contract {cid!r} missing from the roll calendar")
        expiry = expiries[cid]
        if expiry.month not in rule.eligible_months:
            continue
        ss = list(samples)
        if any(b.time < a.time for a, b in zip(ss, ss[1:])):
            raise ValueError(f"contract {cid!r} samples are not sorted by time")
        chain.append((cid, ss, expiry))
    chain.sort(key=lambda c: c[2])
    if not chain:
        if contract_series:
            months = ", ".join(map(str, sorted(rule.eligible_months)))
            given = ", ".join(f"{cid} (month {expiries[cid].month})" for cid, _ in contract_series)
            raise SpliceError(f"no contract expires in an eligible month ({months}); given {given}")
        return []

    out: list[Sample] = []
    shift = 0
    start_idx = 0
    for i, (cid, ss, expiry) in enumerate(chain):
        last = i == len(chain) - 1
        if last:
            retained = ss[start_idx:]
        else:
            roll_ns = rule.roll_time_ns(expiry)
            end = bisect_right(ss, roll_ns, lo=start_idx, key=lambda s: s.time)
            if end == start_idx:
                raise SpliceError(
                    f"no splice reference: contract {cid!r} has no quote at or before its roll"
                )
            retained = ss[start_idx:end]
        out.extend(Sample(s.time, s.value + shift) for s in retained)
        if not last:
            nxt_cid, nxt_ss, _ = chain[i + 1]
            in_idx = bisect_left(nxt_ss, roll_ns, key=lambda s: s.time)
            if in_idx == len(nxt_ss):
                raise SpliceError(
                    f"no splice reference: contract {nxt_cid!r} has no quote at or after the roll"
                )
            shift += retained[-1].value - nxt_ss[in_idx].value
            start_idx = in_idx
    return out
