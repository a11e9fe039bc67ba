"""Persistent-movement decomposition of integer tick series.

The package splits a series into nested completed movements (persistent
pairs) plus an unfinished top structure, with the total variation exactly
conserved between the two.  On top of the decomposition it provides
movement spectra, discrete power-law fitting of movement sizes, rolling
windowed estimates, and ingestion of quote files into tick units.
"""

from .core import (
    Decomposer,
    Decomposition,
    Extremum,
    Kind,
    PersistentPair,
    Sample,
    StreamOrderError,
    TopStructure,
    decompose,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposer",
    "Decomposition",
    "Extremum",
    "Kind",
    "PersistentPair",
    "Sample",
    "StreamOrderError",
    "TopStructure",
    "decompose",
    "__version__",
]
