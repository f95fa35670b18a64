"""Property tests over randomized signed rotation systems and .srs texts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from o1ppg import srsio
from o1ppg.errors import Disconnected, NotSimple, O1ppgError
from o1ppg.generator import canonical_key
from o1ppg.model import validate_quadrangulation
from o1ppg.oracles import double_cover, is_orientable
from o1ppg.surface import EmbeddedGraph, SignedRotationSystem, trace_faces


@st.composite
def rotation_systems(draw, max_vertices=5, max_edges=7):
    n = draw(st.integers(1, max_vertices))
    ne = draw(st.integers(1, max_edges))
    edges = []
    for _ in range(ne):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        s = draw(st.sampled_from((1, -1)))
        edges.append((u, v, s))
    darts_at = [[] for _ in range(n)]
    for i, (u, v, _s) in enumerate(edges):
        darts_at[u].append(2 * i)
        darts_at[v].append(2 * i + 1)
    rotations = []
    for v in range(n):
        rotations.append(draw(st.permutations(darts_at[v])))
    return SignedRotationSystem(n, edges, rotations)


@given(rotation_systems())
def test_face_walks_cover_each_side_once(srs):
    faces = trace_faces(srs)
    assert sum(f.length for f in faces) == 2 * srs.edge_count
    sides = [0] * srs.edge_count
    for f in faces:
        for d in f.boundary:
            sides[d >> 1] += 1
    assert all(c == 2 for c in sides)


@given(rotation_systems())
def test_euler_characteristic_of_closed_surface(srs):
    if not srs.is_connected():
        return
    g = EmbeddedGraph(srs)
    assert g.euler_char <= 2
    if is_orientable(srs):
        assert g.euler_char % 2 == 0


@given(rotation_systems())
def test_is_p2_matches_orientability(srs):
    if not srs.is_connected():
        return
    g = EmbeddedGraph(srs)
    assert g.is_p2() == (g.euler_char == 1 and g.edge_count > 0
                         and not is_orientable(srs))


@st.composite
def simple_connected_systems(draw, max_vertices=6):
    """A random spanning tree plus distinct extra edges, with random signs
    and rotations."""
    n = draw(st.integers(2, max_vertices))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [(u, v) for v in range(n) for u in range(v)
              if (u, v) not in pairs]
    if others:
        pairs += draw(st.lists(st.sampled_from(others), unique=True))
    edges = [(u, v, draw(st.sampled_from((1, -1)))) for u, v in pairs]
    darts_at = [[] for _ in range(n)]
    for i, (u, v, _s) in enumerate(edges):
        darts_at[u].append(2 * i)
        darts_at[v].append(2 * i + 1)
    return SignedRotationSystem(
        n, edges, [draw(st.permutations(ds)) for ds in darts_at])


@given(simple_connected_systems(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=80)
def test_canonical_key_invariance(srs, rng):
    base = canonical_key(srs)
    perm = list(range(srs.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], s) for (u, v, s) in srs.edges]
    rotations = [None] * srs.vertex_count
    for v in range(srs.vertex_count):
        rotations[perm[v]] = list(srs.rotations[v])
    work = SignedRotationSystem(srs.vertex_count, edges, rotations)
    for v in range(work.vertex_count):
        if rng.random() < 0.5:
            new_edges = []
            for (a, b, s) in work.edges:
                if (a == v) != (b == v):
                    new_edges.append((a, b, -s))
                else:
                    new_edges.append((a, b, s))
            rots = [list(r) for r in work.rotations]
            rots[v] = rots[v][::-1]
            work = SignedRotationSystem(work.vertex_count, new_edges, rots)
    assert canonical_key(work) == base


def test_canonical_key_rejects_systems_outside_its_domain():
    loop = SignedRotationSystem(2, [(0, 1, 1), (1, 1, -1)],
                                [[0], [1, 2, 3]])
    multi = SignedRotationSystem(2, [(0, 1, 1), (0, 1, -1)],
                                 [[0, 2], [1, 3]])
    apart = SignedRotationSystem(4, [(0, 1, 1), (2, 3, 1)],
                                 [[0], [1], [2], [3]])
    for srs, error in ((loop, NotSimple), (multi, NotSimple),
                       (apart, Disconnected)):
        with pytest.raises(error):
            canonical_key(srs)


@given(rotation_systems(max_vertices=4, max_edges=6))
@settings(max_examples=60)
def test_double_cover_doubles_characteristic(srs):
    if not srs.is_connected():
        return
    g = EmbeddedGraph(srs)
    cov = double_cover(g)
    assert is_orientable(cov.srs)
    assert cov.euler_char == 2 * g.euler_char


#: small counts, ids and vertices, negative ones included; kept small so
#: that a loader which allocates by a count before reading stays cheap
_SMALL = st.integers(-3, 12)
_DART = st.one_of(st.builds("{}{}".format, _SMALL, st.sampled_from("ab")),
                  st.text("0123456789ab-", min_size=1, max_size=3))
_RECORDS = {
    "srs": st.sampled_from(["srs 1", "srs 2", "srs"]),
    "v": st.builds("v {}".format, _SMALL),
    "e": st.builds("e {}".format, _SMALL),
    "edge": st.builds("edge {} {} {} {}".format, _SMALL, _SMALL, _SMALL,
                      st.sampled_from("+-x")),
    "rot": st.builds(lambda v, ds: " ".join(["rot", str(v), *ds]), _SMALL,
                     st.lists(_DART, max_size=6)),
    "#": st.just("# comment"),
}


@st.composite
def srs_texts(draw):
    """Short .srs texts built from the format's own records: the header,
    the counts, about as many edge and rotation lines as they announce,
    and a few records of any kind inserted anywhere."""
    nv, ne = draw(_SMALL), draw(_SMALL)
    lines = [draw(_RECORDS["srs"]), f"v {nv}", f"e {ne}"]
    for tag, count, cap in (("edge", ne, 6), ("rot", nv, 5)):
        count = min(max(count + draw(st.integers(-1, 1)), 0), cap)
        lines += [draw(_RECORDS[tag]) for _ in range(count)]
    for pos, tag in draw(st.lists(st.tuples(st.integers(0, len(lines)),
                                            st.sampled_from(sorted(_RECORDS))),
                                  max_size=3)):
        lines.insert(pos, draw(_RECORDS[tag]))
    return "\n".join(lines)


@given(srs_texts())
@settings(deadline=None, max_examples=300)
def test_outside_input_raises_only_package_errors(text):
    try:
        validate_quadrangulation(EmbeddedGraph(srsio.loads(text)),
                                 require_polyhedral=False)
    except O1ppgError:
        pass


@st.composite
def srs_bytes(draw):
    """``srs_texts`` as bytes, with a few bytes of any value put in
    anywhere, as a file on disk may hold them."""
    data = bytearray(draw(srs_texts()).encode())
    for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(data)),
                                             st.integers(0, 255)),
                                   max_size=3)):
        data.insert(pos, byte)
    return bytes(data)


@pytest.fixture(scope="module")
def srs_path(tmp_path_factory):
    return tmp_path_factory.mktemp("outside") / "in.srs"


@given(data=srs_bytes())
@settings(deadline=None, max_examples=300)
def test_outside_bytes_raise_only_package_errors(srs_path, data):
    srs_path.write_bytes(data)
    try:
        validate_quadrangulation(EmbeddedGraph(srsio.load(srs_path)),
                                 require_polyhedral=False)
    except O1ppgError:
        pass
