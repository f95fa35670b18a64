"""Regenerate the packaged fixtures from scratch.

FIX-K4 and FIX-BOWTIE come from exhaustive embedding searches, FIX-MIN9 is
the unique 9-vertex polyhedral quadrangulation reachable from FIX-K4, and
the nine base pattern fixtures are the unique embeddings with their stated
face structure.  The roles of the configurations (a)-(g) are not files:
``o1ppg.structures`` derives them from its ``_CONFIG_ROLES``.  Writes into
src/o1ppg/fixtures/.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from o1ppg import srsio
from o1ppg.generator import corpus_instances, grow_quadrangulations
from o1ppg.oracles import build_patterns, exhaustive_small_search
from o1ppg.structures import _CONFIG_ROLES

OUT = pathlib.Path(__file__).resolve().parents[1] / "src/o1ppg/fixtures"


def write_fixtures(out):
    """Write every fixture file into the directory ``out``."""
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)

    k4_edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    (k4,) = exhaustive_small_search(
        4, k4_edges, lambda g: all(f.length == 4 for f in g.faces))
    srsio.dump(k4.srs, out / "FIX-K4.srs",
               header="FIX-K4: the unique quadrangular embedding of K4 in "
                      "the projective plane (three 4-cycle faces)")

    bow_edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    (bow,) = exhaustive_small_search(
        5, bow_edges,
        lambda g: sorted(f.length for f in g.faces) == [6, 6])
    srsio.dump(bow.srs, out / "FIX-BOWTIE.srs",
               header="FIX-BOWTIE: two essential triangles sharing vertex 0;"
                      " two pinched hexagonal faces")

    min9 = corpus_instances(grow_quadrangulations([k4], n_max=9))
    assert len(min9) == 1, f"expected a unique 9-vertex polyhedral member, " \
                           f"got {len(min9)}"
    srsio.dump(min9[0].quad.embedding.srs, out / "FIX-MIN9.srs",
               header="FIX-MIN9: the minimum-order polyhedral quadrangulation"
                      " of the projective plane in the generated corpus")

    for pid, pat in sorted(build_patterns().items()):
        if pid in _CONFIG_ROLES:
            continue
        srsio.dump(pat.embedding.srs, out / f"pattern_{pid}.srs",
                   header=f"pattern {pid}: fixed embedded subgraph fixture; "
                          "roles of (a)-(g) are in o1ppg.structures")


def main():
    write_fixtures(OUT)
    print(f"wrote fixtures into {OUT}")


if __name__ == "__main__":
    main()
