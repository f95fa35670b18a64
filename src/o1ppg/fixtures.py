"""Packaged fixture embeddings: FIX-K4, FIX-BOWTIE, FIX-MIN9, and the nine
base pattern embeddings (the roles of the configurations (a)-(g) on them
live in :mod:`o1ppg.structures`).

Every fixture is reproducible from scratch (``scripts/make_fixtures.py``;
the tests regenerate and compare byte for byte): FIX-K4 and FIX-BOWTIE by
exhaustive search, FIX-MIN9 by the generator, and the patterns by the
unique-embedding searches in :mod:`o1ppg.oracles`.
"""

from __future__ import annotations

from importlib import resources

from . import srsio
from .surface import EmbeddedGraph


def load_embedding(name) -> EmbeddedGraph:
    """Load a fixture .srs by bare name, e.g. ``FIX-K4``."""
    ref = resources.files(__package__).joinpath("fixtures", name + ".srs")
    return EmbeddedGraph(srsio.loads(ref.read_text()))


def fix_k4() -> EmbeddedGraph:
    return load_embedding("FIX-K4")


def fix_bowtie() -> EmbeddedGraph:
    return load_embedding("FIX-BOWTIE")


def fix_min9() -> EmbeddedGraph:
    return load_embedding("FIX-MIN9")
