"""Reference quote parse: every row through ingest's per-row Fraction path.

parse_ticks reads universal-newline streams in numpy blocks and leaves
only the rows the block grammar does not take to the per-row path.  This
reference skips the blocks, so the tests can check that both give the
same ticks and the same errors.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Sequence

from persistick.ingest import InstrumentSpec, TickSeries, _TickReader


def parse_ticks_by_row(
    stream: IO[str] | Iterable[str],
    spec: InstrumentSpec,
    columns: str | Sequence[str] = "time,bid,ask",
    delimiter: str = ",",
) -> TickSeries:
    """parse_ticks through the per-row path alone."""
    reader = _TickReader(spec, columns, delimiter)
    reader.feed_rows(csv.reader(stream, delimiter=delimiter))
    return reader.result()
