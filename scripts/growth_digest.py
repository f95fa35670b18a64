"""Digests of the corpus grown from FIX-K4, for checking that a change to
growth keeps its output byte for byte.

    python scripts/growth_digest.py --max-n 10 --runs 15

prints the number of classes per order, the sha256 of the sorted canonical
keys joined by newlines, the sha256 of the discovery-order stream (each
class's key, ``.srs`` body and polyhedral and bipartite flags, as
``stream_record`` spells them) and the CPU seconds growth took, least over
the runs (the counts and digests are those of the first run).  Two trees
grow the same corpus, with the same stored representatives in the same
order, iff both digests agree.
"""

import argparse
import hashlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from o1ppg import generator, srsio
from o1ppg.fixtures import fix_k4


def stream_record(c):
    """The bytes one grown class adds to the stream digest: its key, its
    ``.srs`` body and its two flags as ``0``/``1``, each closed by a
    newline."""
    return (f"{c.key}\n{srsio.dumps(c.srs)}"
            f"{int(c.polyhedral)} {int(c.bipartite)}\n").encode()


def growth_digest(n_max):
    """``(classes per order, sorted-key sha256, stream sha256, growth CPU
    seconds)`` of growth from FIX-K4 to ``n_max``.  Only the ``_grow``
    stream is timed; hashing is not."""
    seed = fix_k4()
    stream = hashlib.sha256()
    counts, keys = {}, []
    cpu = 0.0
    grow = generator._grow([seed], n_max)
    while True:
        t = time.process_time()
        c = next(grow, None)
        cpu += time.process_time() - t
        if c is None:
            break
        n = c.srs.vertex_count
        counts[n] = counts.get(n, 0) + 1
        keys.append(c.key)
        stream.update(stream_record(c))
    keys.sort()
    sorted_keys = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    return dict(sorted(counts.items())), sorted_keys, stream.hexdigest(), cpu


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-n", type=int, required=True,
                    help="largest order grown")
    ap.add_argument("--runs", type=int, default=1,
                    help="timed growths; the CPU seconds are their least")
    args = ap.parse_args(argv)
    counts, sorted_keys, stream, cpu = growth_digest(args.max_n)
    for _ in range(args.runs - 1):
        cpu = min(cpu, growth_digest(args.max_n)[3])
    for n, count in counts.items():
        print(f"n={n}\t{count}")
    print(f"classes\t{sum(counts.values())}")
    print(f"sorted_keys_sha256\t{sorted_keys}")
    print(f"stream_sha256\t{stream}")
    print(f"growth_cpu_s\t{cpu:.3f}")


if __name__ == "__main__":
    main()
