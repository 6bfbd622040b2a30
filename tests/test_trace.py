"""read_trace decodes the header and the frames asked for, and agrees with the
eager reader of tests/oracles.py on every frame and every error text."""

import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frame_at_reference, read_trace_reference
from orgtree import trace
from orgtree.detect import Organization
from orgtree.errors import ConfigError, DynamicsError
from orgtree.geometry import AABB, CellCoord, Vec2
from orgtree.ntree import Bodies, Body
from orgtree.trace import Frame, dumps_canonical, frame_to_dict, organization_to_dict, read_trace

HEADER = {"config": {"seed": 1}, "version": 1}
COMPACT = {"sort_keys": True, "separators": (",", ":")}  # dumps_canonical's layout
SPACED = {"sort_keys": True}                             # json.dumps' default separators


def frame(step, *, modularity=None, tag=0):
    out = {"step": step, "organizations": [],
           "bodies": [{"id": i, "species": 0, "x": i + 0.5 * tag, "y": 1.0,
                       "vx": 0.0, "vy": 0.0} for i in range(3)]}
    if modularity is not None:
        out["modularity"] = modularity
    return out


def write(tmp_path, lines):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return path


def dumps(obj, layout):
    return json.dumps(obj, **layout).encode()


# Frame lines whose tail does not give their step; read_trace decodes them.
ODD_TAILS = [
    b'{"bodies":[],"step":2.0}',
    b'{"bodies":[],"step":true}',
    b'{"bodies":[],"step":' + b"1" * 19 + b"}",
    b'{"bodies":[],"x\\"step":6}',
    b'{"step":7,"bodies":[]}',
    b'{"bodies":[],"step":-3}',
    b'{"bodies":[],"step":"4"}',
    b'{"bodies":[],"step":5e0}',
]


@pytest.mark.parametrize("layout", [COMPACT, SPACED], ids=["compact", "spaced"])
@pytest.mark.parametrize("with_modularity", [False, True])
def test_frame_at_equals_the_eager_reader_for_every_step(tmp_path, layout, with_modularity):
    lines = [dumps(HEADER, layout)]
    for step in range(6):
        q = 0.125 * step if with_modularity else None
        lines.append(dumps(frame(step, modularity=q), layout))
        if step == 3:
            lines += [b"", dumps(frame(3, modularity=q, tag=1), layout), b""]  # a duplicate
    lines[2:2] = ODD_TAILS  # 2.0 and true come before the frames of steps 2 and 1
    lines.append(dumps(frame(8, tag=2), layout) + b"  \t")
    path = write(tmp_path, lines)

    data = read_trace(path)
    header, frames = read_trace_reference(path)
    assert data.header == header
    assert data.frames == frames
    fast = [step for _, step, _ in data.lines if step is not None]
    assert fast == [0, 1, 2, 3, 3, 4, 5, 8]
    for step in {f.get("step") for f in frames} | {0, 1, 2, 3}:
        assert data.frame_at(step) == frame_at_reference(frames, step), step
    assert data.frame_at(3)["bodies"][0]["x"] == 0  # the first duplicate wins
    for absent in (6, 9, -1, 10**20):
        with pytest.raises(ConfigError) as want:
            frame_at_reference(frames, absent)
        with pytest.raises(ConfigError) as got:
            data.frame_at(absent)
        assert str(got.value) == str(want.value)


def test_the_tail_pattern_takes_both_writers_and_nothing_else():
    for layout in (COMPACT, SPACED):
        for step in (0, 7, 10**17, 10**18 - 1):
            assert trace._tail_step(dumps(frame(step, modularity=0.5), layout)) == step
    assert trace._tail_step(b'{"a":1 , "step" :\t12 }\t') == 12
    for line in ODD_TAILS + [b"5", b'[{"step":1}]', b'{"a":{"step":1}}', b'{"step":1}\xff',
                             b'{"step":1}\x0c', b'{"step":' + b"9" * 5000 + b"}",
                             b'{"a":"' + b" " * 64 + b'","step":' + b" " * 64 + b"1}"]:
        assert trace._tail_step(line) is None, line


@pytest.mark.parametrize("bad, step", [
    (b"5", None),
    (b'[1, {"step": 2}]', None),
    (b'{"step": ' + b"9" * 5000 + b"}", None),
    (b'{"bodies": [], "step": 2}\xff', None),
    (b"   ", None),
    (b'{"bodies": [1,, "step": 2}', 2),
    (b'{"bodies": "\xff", "step": 2}', 2),
    (b'{"bodies": [], "step": 2}}', None),
    (b'{"bodies": []}, "step": 2}', 2),
])
def test_malformed_lines_raise_the_eager_readers_text(tmp_path, bad, step):
    """A line whose tail gives no step fails in read_trace; one whose tail
    gives step 2 fails only when frame 2 or every frame is asked for."""
    path = write(tmp_path, [dumps(HEADER, COMPACT), dumps(frame(0), COMPACT), bad,
                            dumps(frame(1), COMPACT)])
    with pytest.raises(ConfigError) as want:
        read_trace_reference(path)
    if step is None:
        with pytest.raises(ConfigError) as got:
            read_trace(path)
    else:
        data = read_trace(path)
        assert data.frame_at(1) == frame(1)
        with pytest.raises(ConfigError) as got:
            data.frame_at(step)
        with pytest.raises(ConfigError) as every:
            data.frames
        assert str(every.value) == str(want.value)
    assert str(got.value) == str(want.value)


def test_a_frame_whose_step_differs_from_its_tail_is_refused(tmp_path, monkeypatch):
    path = write(tmp_path, [dumps(HEADER, COMPACT), dumps(frame(3), COMPACT)])
    monkeypatch.setattr(trace, "_tail_step", lambda line: 4)
    with pytest.raises(ConfigError, match=r"trace\.jsonl:2: frame step 3 differs"):
        read_trace(path).frame_at(4)


@pytest.mark.parametrize("k", [0, 17, 49])
def test_one_frame_read_decodes_the_header_and_that_frame_only(tmp_path, monkeypatch, k):
    path = write(tmp_path, [dumps(HEADER, COMPACT)]
                 + [dumps(frame(step, modularity=0.5), COMPACT) for step in range(50)])
    decoded = []
    loads = json.loads

    def counting(line, *args, **kwargs):
        decoded.append(line)
        return loads(line, *args, **kwargs)

    monkeypatch.setattr(trace.json, "loads", counting)
    assert read_trace(path).frame_at(k) == frame(k, modularity=0.5)
    assert decoded == [dumps(HEADER, COMPACT), dumps(frame(k, modularity=0.5), COMPACT)]


@pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n", b"\r\r\n\n"])
def test_lines_end_and_count_as_in_splitlines(tmp_path, end):
    """read_trace reads line by line; its line numbers stay those of
    bytes.splitlines, blank lines counted, whatever ends the lines."""
    lines = [dumps(HEADER, COMPACT), dumps(frame(0), COMPACT), b"", dumps(frame(1), SPACED)]
    path = tmp_path / "trace.jsonl"
    path.write_bytes(end.join(lines))
    assert read_trace(path).frames == read_trace_reference(path)[1]
    path.write_bytes(end.join(lines + [b"", b"5", dumps(frame(2), COMPACT)]) + end)
    with pytest.raises(ConfigError) as want:
        read_trace_reference(path)
    with pytest.raises(ConfigError) as got:
        read_trace(path)
    assert str(got.value) == str(want.value)


def test_read_peaks_at_about_the_file_size(tmp_path):
    """Lines are read one at a time, not split out of the whole file's bytes."""
    big = [dict(frame(step), bodies=frame(step)["bodies"] * 100) for step in range(200)]
    path = write(tmp_path, [dumps(HEADER, COMPACT)] + [dumps(f, COMPACT) for f in big])
    del big
    tracemalloc.start()
    try:
        data = read_trace(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data.lines) == 200
    assert peak <= 1.25 * path.stat().st_size


def test_a_read_of_the_last_frame_peaks_at_a_few_frames(tmp_path):
    """read_trace keeps each frame line as its byte span and frame_at reads
    the asked one only: beyond the decoded frame it returns, the read peaks at
    a few frames' bytes, where holding every line would take the file's."""
    big = [dict(frame(step), bodies=frame(step)["bodies"] * 100) for step in range(200)]
    lines = [dumps(HEADER, COMPACT)] + [dumps(f, COMPACT) for f in big]
    path = write(tmp_path, lines)
    frame_bytes = len(lines[-1])
    del big, lines
    tracemalloc.start()
    try:
        data = read_trace(path)
        indexed = tracemalloc.get_traced_memory()[0]
        last = data.frame_at(199)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert last == dict(frame(199), bodies=frame(199)["bodies"] * 100)
    # The decoded frame holds about 6.4 times its line's bytes.  The rest of
    # the peak is the index of 200 spans (about 2.4 frames), the line's bytes
    # and their text.
    assert peak - (held - indexed) < 5 * frame_bytes


def test_a_trace_that_cannot_be_read_again_is_a_config_error(tmp_path):
    path = write(tmp_path, [dumps(HEADER, COMPACT), dumps(frame(0), COMPACT)])
    data = read_trace(path)
    path.unlink()
    with pytest.raises(ConfigError, match=r"^cannot read trace .*trace\.jsonl: "):
        data.frame_at(0)


# Floats json writes in every form repr has: signed zero, the smallest
# subnormal, exponents on both sides, and 2**53 + 1, which rounds to 2**53.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16, float(2 ** 53 + 1), 0.1,
               1.7976931348623157e308, 123456789.125]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
IDS = st.one_of(st.sampled_from([0, 2 ** 63 - 1]), st.integers(0, 2 ** 63 - 1))
BODY_ROWS = st.lists(st.tuples(IDS, IDS, FLOATS, FLOATS, FLOATS, FLOATS), max_size=20)
ORG = Organization(0, frozenset({CellCoord(2, 1, 1)}), (0, 3), Vec2(0.5, -0.0),
                   AABB(Vec2(0.25, -1.0), Vec2(1e16, 5e-324)))


def body_dicts_frame(frame):
    """The frame's dict with one dict per body, as json is given it to write."""
    return {"step": frame.step,
            "bodies": [{"id": b.id, "species": b.species, "x": b.position.x, "y": b.position.y,
                        "vx": b.velocity.x, "vy": b.velocity.y} for b in frame.bodies],
            "organizations": [organization_to_dict(o) for o in frame.organizations],
            **({} if frame.modularity is None else {"modularity": frame.modularity})}


@settings(max_examples=300, deadline=None)
@given(BODY_ROWS, st.one_of(st.none(), FLOATS), st.booleans(), st.integers(0, 10 ** 18))
def test_a_frame_line_is_jsons_bytes_for_its_body_dicts(rows, q, orgs, step):
    ids, species, x, y, vx, vy = zip(*rows) if rows else [()] * 6
    bodies = Bodies(ids, species, x, y, vx, vy, [1.0] * len(rows))
    frame = Frame(step=step, bodies=bodies, organizations=(ORG,) if orgs else (), modularity=q)
    want = json.dumps(body_dicts_frame(frame), **COMPACT)
    assert dumps_canonical(frame_to_dict(frame), "the frame") == want
    listed = Frame(step=step, bodies=list(bodies), organizations=frame.organizations,
                   modularity=q)  # Body objects are written through their columns
    assert dumps_canonical(frame_to_dict(listed), "the frame") == want


def test_bodies_are_written_whatever_keys_sort_before_them_and_nowhere_else():
    bodies = Bodies([5, 2], [1, 0], [0.5, -0.0], [1e16, 5e-324], [0.0, 1e-5], [2.0, 3.0],
                    [1.0, 1.0])
    listed = [{"id": b.id, "species": b.species, "x": b.position.x, "y": b.position.y,
               "vx": b.velocity.x, "vy": b.velocity.y} for b in bodies]
    for keys in (("a", "step"), ("a",), ("step",), (), ("Z", "a", "bodiez", "bodie")):
        obj = {k: {"bodies": [k]} for k in keys}
        want = json.dumps({**obj, "bodies": listed}, **COMPACT)
        assert dumps_canonical({**obj, "bodies": bodies}) == want
        assert dumps_canonical({"bodies": bodies, **obj}) == want
    assert dumps_canonical({"bodies": bodies[:0], "a": 1}) == '{"a":1,"bodies":[]}'
    for nested in ({"a": bodies}, [{"bodies": bodies}], {"bodies": [bodies]}):
        with pytest.raises(TypeError, match="^Object of type Bodies is not JSON serializable$"):
            dumps_canonical(nested)
    with pytest.raises(DynamicsError, match="^the frame holds a non-finite number: "):
        dumps_canonical({"a": math.nan, "bodies": bodies}, "the frame")


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_a_non_finite_modularity_raises_the_dynamics_error_naming_the_frame(q):
    frame = Frame(step=3, bodies=Bodies([4], [0], [1.0], [2.0], [0.0], [0.0], [1.0]),
                  organizations=(ORG,), modularity=q)
    with pytest.raises(ValueError) as want:
        json.dumps(body_dicts_frame(frame), allow_nan=False, **COMPACT)
    with pytest.raises(DynamicsError) as got:
        dumps_canonical(frame_to_dict(frame), "the frame of step 3")
    assert str(got.value) == f"the frame of step 3 holds a non-finite number: {want.value}"


@pytest.mark.parametrize("column", range(2, 6))
def test_a_non_finite_body_column_is_the_bodies_value_error(column):
    cols = [[7, 8], [0, 1], [1.0, 2.0], [3.0, 4.0], [0.0, 0.5], [-0.5, 1.0], [1.0, 1.0]]
    cols[column][1] = math.inf
    with pytest.raises(ValueError, match="^body 8 has a non-finite component$"):
        Bodies(*cols)
    b = Body(8, 1, Vec2(*[c[1] for c in cols[2:4]]), Vec2(*[c[1] for c in cols[4:6]]))
    frame = Frame(step=0, bodies=[b], organizations=())
    with pytest.raises(ValueError, match="^body 8 has a non-finite component$"):
        dumps_canonical(frame_to_dict(frame))
