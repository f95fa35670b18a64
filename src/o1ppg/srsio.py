"""Text serialization of signed rotation systems.

Format (ASCII, LF, one record per line):

    srs 1
    v <V>
    e <E>
    edge <id> <u> <v> <sign>      sign in {+,-}, E lines, ids 0..E-1
    rot <v> <dart>*               V lines; dart = <edge_id>a | <edge_id>b

Dart suffix ``a`` is the end at ``u``, ``b`` the end at ``v``; a loop lists
both its darts in the rotation of its vertex.  Lines starting with ``#`` are
comments and are ignored; ``dump(header=...)`` writes a header of comment
lines first (``scripts/make_fixtures.py`` names each fixture so).
"""

from __future__ import annotations

import io
import os

from .errors import MalformedRotation
from .surface import SignedRotationSystem


def dumps(srs: SignedRotationSystem, header=None) -> str:
    out = io.StringIO()
    if header:
        for line in header.splitlines():
            out.write(f"# {line}\n")
    out.write("srs 1\n")
    out.write(f"v {srs.vertex_count}\n")
    out.write(f"e {srs.edge_count}\n")
    for i, (u, v, s) in enumerate(srs.edges):
        out.write(f"edge {i} {u} {v} {'+' if s > 0 else '-'}\n")
    for v in range(srs.vertex_count):
        darts = " ".join(f"{d >> 1}{'ab'[d & 1]}" for d in srs.rotations[v])
        out.write(f"rot {v} {darts}".rstrip() + "\n")
    return out.getvalue()


def loads(text: str) -> SignedRotationSystem:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    if not lines or lines[0].split() != ["srs", "1"]:
        raise MalformedRotation("missing 'srs 1' header")
    it = iter(lines[1:])
    line = lines[0]

    def expect(tag):
        nonlocal line
        try:
            line = next(it)
        except StopIteration:
            raise MalformedRotation(f"truncated file, expected '{tag}'")
        parts = line.split()
        if parts[0] != tag:
            raise MalformedRotation(f"expected '{tag}', got '{parts[0]}'")
        return parts

    try:
        nv = int(expect("v")[1])
        ne = int(expect("e")[1])
        left = len(lines) - 3
        if min(nv, ne) < 0 or nv + ne > left:
            raise MalformedRotation(
                f"counts v {nv}, e {ne} do not fit the {left} records left")
        edges = [None] * ne
        for _ in range(ne):
            parts = expect("edge")
            i, u, v, sgn = (int(parts[1]), int(parts[2]), int(parts[3]),
                            parts[4])
            if not 0 <= i < ne or edges[i] is not None:
                raise MalformedRotation(f"bad or duplicate edge id {i}")
            if sgn not in ("+", "-"):
                raise MalformedRotation(f"bad sign {sgn!r}")
            edges[i] = (u, v, 1 if sgn == "+" else -1)
        rotations = [None] * nv
        for _ in range(nv):
            parts = expect("rot")
            v = int(parts[1])
            if not 0 <= v < nv or rotations[v] is not None:
                raise MalformedRotation(
                    f"bad or duplicate rotation line for {v}")
            darts = []
            for tok in parts[2:]:
                e, end = int(tok[:-1]), tok[-1]
                if end not in "ab" or not 0 <= e < ne:
                    raise MalformedRotation(f"bad dart token {tok!r}")
                darts.append(2 * e + (0 if end == "a" else 1))
            rotations[v] = darts
        extra = next(it, None)
        if extra is not None:
            raise MalformedRotation(
                f"unexpected line after the rotations: {extra!r}")
    except (ValueError, IndexError):
        raise MalformedRotation(f"malformed line {line!r}") from None
    return SignedRotationSystem(nv, edges, rotations)


def dump(srs, path, header=None):
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(srs, header=header))


def read_ascii(path, error=MalformedRotation):
    """The text of the file at ``path``; raises ``error``, naming the file
    and the offset, when it holds a byte that is not ASCII."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise error(f"{os.path.basename(path)}: byte "
                    f"{data[exc.start]:#04x} at offset {exc.start} "
                    "is not ASCII") from None


def load(path):
    """The system in the ``.srs`` file at ``path``; raises
    MalformedRotation on a byte that is not ASCII, as ``loads`` does on
    a malformed record."""
    return loads(read_ascii(path))
