import gc
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointmeta import data as data_module
from pointmeta.autodiff import ParamStore, Tape, backward, cross_entropy, grad_array
from pointmeta.data import (
    DEFAULT_CLASSES,
    DEFAULT_PALETTE,
    Area,
    Block,
    Room,
    SyntheticAreaSpec,
    export_ply,
    featurize_block,
    generate_synthetic_area,
    load_dataset,
    load_room,
    load_vocab,
    partition_blocks,
    resample_block,
    synthetic_rooms,
    write_file,
    write_room,
    write_vocab,
)
from pointmeta.errors import ConfigError, ValidationError
from pointmeta.metrics import accumulate
from pointmeta.sampler import index_categories

from helpers import CHUNK_IN_FLIGHT


def make_room(xyz, labels=None, rgb=None, name="office_1"):
    xyz = np.asarray(xyz, dtype=np.float64)
    n = len(xyz)
    return Room(
        name=name,
        room_type=name.rpartition("_")[0],
        xyz=xyz,
        rgb=np.asarray(rgb) if rgb is not None else np.full((n, 3), 128, dtype=np.int64),
        labels=np.asarray(labels) if labels is not None else np.zeros(n, dtype=np.int64),
    )


def make_block(xyz, rgb, labels):
    # a lone cell at the origin of a unit room
    return Block(grid=(0, 0), xyz=xyz, rgb=rgb, labels=labels, center=np.array([0.5, 0.5, 0.0]),
                 room_min=np.zeros(3), room_extent=np.ones(3))


def room_wide_features(block, room):
    """The room-wide featurization, recomputing the room frame from every point of the room."""
    room_min = room.xyz.min(axis=0)
    extent = room.xyz.max(axis=0) - room_min
    centered = block.xyz.copy()
    for axis in (0, 1):
        centered[:, axis] -= room_min[axis] + (block.grid[axis] + 0.5)
    normalized = np.empty_like(block.xyz)
    for axis in range(3):
        if extent[axis] > 0:
            normalized[:, axis] = (block.xyz[:, axis] - room_min[axis]) / extent[axis]
        else:
            normalized[:, axis] = 0.5
    return np.concatenate([centered, block.rgb / 255.0, normalized], axis=1).astype(np.float32)


def test_load_room_three_lines(tmp_path):
    path = tmp_path / "office_1.txt"
    path.write_text(
        "# a comment\n"
        "0.0 0.0 0.0 10 20 30 0\n"
        "1.0 0.5 2.0 40 50 60 1\n"
        "0.2 0.3 0.4 70 80 90 0\n"
    )
    room = load_room(path, DEFAULT_CLASSES)
    assert len(room) == 3
    assert room.room_type == "office"
    assert np.array_equal(room.labels, [0, 1, 0])


def test_load_room_empty_file(tmp_path):
    path = tmp_path / "office_1.txt"
    path.write_text("# nothing\n")
    with pytest.raises(ValidationError, match="empty"):
        load_room(path, DEFAULT_CLASSES)


def test_load_room_bad_color(tmp_path):
    path = tmp_path / "office_1.txt"
    path.write_text("0 0 0 300 0 0 0\n")
    with pytest.raises(ValidationError, match=":1"):
        load_room(path, DEFAULT_CLASSES)


def test_load_room_bad_label_and_line_number(tmp_path):
    path = tmp_path / "office_1.txt"
    path.write_text("0 0 0 1 1 1 0\n0 0 0 1 1 1 99\n")
    with pytest.raises(ValidationError, match=":2"):
        load_room(path, DEFAULT_CLASSES)


GOOD_LINE = "0.5 0.5 0.5 1 2 3 0"


@pytest.mark.parametrize(
    "bad",
    [
        "0 0 0 1 1 1",  # six fields
        "0 0 x 1 1 1 0",  # not a number
        "0 0 0 1 6.5 1 0",  # a fractional color
        "0 0 0 1 1 1 0 # note",  # a trailing comment
        "nan 0 0 1 1 1 0",  # a non-finite coordinate
        "0 0 0 300 1 1 0",  # a color out of range
        "0 0 0 1 1 1 99",  # a label outside the vocabulary
    ],
    ids=["field_count", "not_a_number", "fractional_color", "trailing_comment", "nan", "color_300", "label_99"],
)
def test_load_room_names_the_bad_line(tmp_path, bad):
    path = tmp_path / "office_1.txt"
    # comment and blank lines before the bad line still count
    path.write_text(f"# header\n{GOOD_LINE}\n\n   \n# note\n{GOOD_LINE}\n{bad}\n{GOOD_LINE}\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:7: "):
        load_room(path, DEFAULT_CLASSES)


def test_load_room_names_the_first_of_two_bad_lines(tmp_path):
    # a broken point rule on line 2 comes before a parse error on line 3, and vice versa
    path = tmp_path / "office_1.txt"
    path.write_text(f"{GOOD_LINE}\n0 0 0 300 1 1 0\n0 0 0 1 1\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: color"):
        load_room(path, DEFAULT_CLASSES)
    path.write_text(f"{GOOD_LINE}\n0 0 0 1 1\n0 0 0 300 1 1 0\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: expected"):
        load_room(path, DEFAULT_CLASSES)


# ids: False holds no early fault, True an early color outside one byte, nan an early non-finite coordinate
@pytest.mark.parametrize("early", [None, "0 0 0 300 1 1 0", "nan 0 0 1 1 1 0"], ids=["False", "True", "nan"])
@pytest.mark.parametrize("bad_at", [0, 255, 256, 20000])
def test_naming_a_malformed_line_parses_in_chunks(tmp_path, monkeypatch, bad_at, early):
    # a per-line scan made one loadtxt call per line up to the malformed one: 20,001 for the last line here
    lines = [GOOD_LINE] * 20000
    lines.insert(bad_at, "0 0 0 1 1 1")
    if early:  # a point rule broken earlier, in the same chunk or another, is still named first
        lines[3 if bad_at else 300] = early
    text = "\n".join(lines) + "\n"
    path = tmp_path / "office_1.txt"
    path.write_text(text)
    calls, loadtxt = [], np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    with pytest.raises(ValidationError) as info:
        load_room(path, DEFAULT_CLASSES)
    assert str(info.value) == load_room_oracle(text, path, len(DEFAULT_CLASSES))
    assert len(calls) < 400


def write_long_room(path) -> int:
    """A valid room file 20 chunks long at ``path``; its point count."""
    rng = np.random.default_rng(0)
    n = 20 * data_module._CHUNK_ROWS + 17
    write_room(make_room(rng.uniform(-10, 10, (n, 3)), labels=rng.integers(0, 6, n), rgb=rng.integers(0, 256, (n, 3))), path)
    return n


def traced_peak(load):
    """``load()``'s result, or the exception it raised, and the tracemalloc peak it reached in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        try:
            result = load()
        except Exception as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_room_parses_a_long_room_in_chunks(tmp_path, monkeypatch):
    # a room 20 chunks long is parsed about _CHUNK_ROWS lines at a time into its final arrays, so loading it holds
    # the text, the arrays and one chunk in flight, not a str per line and an int64 table of the whole room
    path = tmp_path / "office_1.txt"
    n = write_long_room(path)
    load_room(path, DEFAULT_CLASSES)  # a first load pays what numpy sets up once
    parses, loadtxt = [], np.loadtxt

    def counting_loadtxt(lines, *args, **kwargs):
        parses.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    back, peak = traced_peak(lambda: load_room(path, DEFAULT_CLASSES))
    arrays = back.xyz.nbytes + back.rgb.nbytes + back.labels.nbytes
    assert arrays == 28 * n  # float64 coordinates, one byte per color channel and one per label
    assert peak < path.stat().st_size + 2 * arrays + CHUNK_IN_FLIGHT
    assert len(parses) >= 20 and max(parses) < 1.5 * data_module._CHUNK_ROWS
    assert_room_arrays(back, read_room_oracle(path.read_text()))


@pytest.mark.parametrize(
    "bad, message",
    [("0 0 0 1 1 1", "expected 'x y z r g b label' with integer r g b label, got '0 0 0 1 1 1'"),
     ("nan 0 0 1 1 1 0", "non-finite coordinates")],
    ids=["field_count", "nan"],
)
def test_naming_the_last_line_of_a_long_room_holds_one_chunk(tmp_path, monkeypatch, bad, message):
    # the failing chunk alone is scanned for the bad line, so an error holds no more than a valid load of the room
    path = tmp_path / "office_1.txt"
    n = write_long_room(path)
    with open(path, "a") as fh:
        fh.write(f"{bad}\n")
    with pytest.raises(ValidationError):  # a first load pays what numpy sets up once
        load_room(path, DEFAULT_CLASSES)
    scanned, raise_at_bad_line = [], data_module._raise_at_bad_line

    def counting_raise_at_bad_line(path, lines, *args):
        scanned.append(len(lines))
        raise_at_bad_line(path, lines, *args)

    monkeypatch.setattr(data_module, "_raise_at_bad_line", counting_raise_at_bad_line)
    error, peak = traced_peak(lambda: load_room(path, DEFAULT_CLASSES))
    assert isinstance(error, ValidationError) and str(error) == f"{path}:{n + 1}: {message}"
    assert peak < path.stat().st_size + 2 * 28 * n + CHUNK_IN_FLIGHT  # the bound of a valid load of n points
    assert len(scanned) == 1 and scanned[0] <= 1.5 * data_module._CHUNK_ROWS


def test_load_room_not_utf8(tmp_path):
    path = tmp_path / "office_1.txt"
    path.write_bytes(f"{GOOD_LINE}\n".encode() + b"\xff\xfe\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not UTF-8 text \\(invalid start byte\\)$"):
        load_room(path, DEFAULT_CLASSES)


def test_load_room_whitespace_only_file_is_empty(tmp_path):
    # loadtxt warns on input without data, and pytest turns that warning into an error
    path = tmp_path / "office_1.txt"
    path.write_text("\n  \n\t\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: empty room, no points$"):
        load_room(path, DEFAULT_CLASSES)


@pytest.mark.parametrize(
    "text",
    [f"{GOOD_LINE}\n\n  {GOOD_LINE}\t\n", f"# header\n{GOOD_LINE}\n\n  # indented note\n  {GOOD_LINE}\t\n"],
    ids=["no_comments", "comments"],
)
def test_load_room_reads_once_and_checks_each_rule_once(tmp_path, monkeypatch, text):
    path = tmp_path / "office_1.txt"
    path.write_text(text)
    reads, parses, checks = [], [], []
    read_text, loadtxt, check_points = Path.read_text, np.loadtxt, data_module.check_points

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    def counting_loadtxt(lines, *args, **kwargs):
        parses.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    def counting_check_points(name, xyz, rgb, labels, n_classes=None, linenos=None):
        checks.append((xyz is not None, n_classes))
        check_points(name, xyz, rgb, labels, n_classes, linenos)

    def no_line_scan(*args):
        raise AssertionError("a valid file took the line-numbered scan")

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    monkeypatch.setattr(data_module, "check_points", counting_check_points)
    monkeypatch.setattr(data_module, "_raise_at_bad_line", no_line_scan)
    assert len(load_room(path, DEFAULT_CLASSES)) == 2
    assert reads == [path]
    assert parses == [text.count("\n") + 1]  # a text shorter than a chunk: one loadtxt over every line
    assert checks == [(True, None)]  # XYZ/RGB in Room; the chunk parse checked the vocabulary before narrowing


def write_room_oracle(room) -> bytes:
    """The per-line writer of a room's (or a block's) rows that the table writer must match byte for byte."""
    return "".join(
        f"{x:.6f} {y:.6f} {z:.6f} {int(r)} {int(g)} {int(b)} {int(label)}\n"
        for (x, y, z), (r, g, b), label in zip(room.xyz, room.rgb, room.labels)
    ).encode("utf-8")


def format_rows(block) -> bytes:
    """``_format_rows`` of a block's rows; unlike a room's, a block's labels may be any int64."""
    return data_module._format_rows(block.xyz, np.column_stack([block.rgb, block.labels]))


def read_room_oracle(text: str):
    """The per-line room reader: float() for coordinates, int() for colors and labels."""
    rows = [line.split() for line in text.splitlines()]
    return (
        np.array([[float(v) for v in row[:3]] for row in rows], dtype=np.float64),
        np.array([[int(v) for v in row[3:6]] for row in rows], dtype=np.int64),
        np.array([int(row[6]) for row in rows], dtype=np.int64),
    )


def load_room_oracle(text: str, path, n_classes: int):
    """What ``load_room`` gives for ``text``: (xyz, rgb, labels), or the message it raises.

    Lines are split on "\\n" alone and stripped; blank and "#" lines are skipped; fields are ASCII
    numbers, parsed with float() and int(), which would also read a "_" digit separator or a non-ASCII
    digit.  The first line that does not parse or breaks a point rule is named.
    """
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:  # a wrong field count or a field that does not parse
            x, y, z, r, g, b, label = fields = line.split()
            if not all(field.isascii() and "_" not in field for field in fields):
                raise ValueError("not an ASCII number")
            xyz, rgb, label = [float(x), float(y), float(z)], [int(r), int(g), int(b)], int(label)
        except ValueError:
            return f"{path}:{lineno}: expected 'x y z r g b label' with integer r g b label, got {line!r}"
        broken = [what for bad, what in [
            (not all(map(math.isfinite, xyz)), "non-finite coordinates"),
            (not all(0 <= v <= 255 for v in rgb), "color outside [0, 255]"),
            (not 0 <= label < n_classes, f"label not in the {n_classes}-class vocabulary"),
        ] if bad]
        if broken:
            return f"{path}:{lineno}: {min(broken)}"
        rows.append((xyz, rgb, label))
    if not rows:
        return f"{path}: empty room, no points"
    return (
        np.array([xyz for xyz, _, _ in rows], dtype=np.float64),
        np.array([rgb for _, rgb, _ in rows], dtype=np.int64),
        np.array([label for _, _, label in rows], dtype=np.int64),
    )


def assert_room_arrays(room, want) -> None:
    """``room`` holds the oracle's (xyz, rgb, labels) values, as float64, uint8 and uint8 arrays."""
    assert (room.xyz.dtype, room.rgb.dtype, room.labels.dtype) == (np.float64, np.uint8, np.uint8)
    for got, expected in zip((room.xyz, room.rgb, room.labels), want):
        assert got.shape == expected.shape and np.array_equal(got, expected)
        assert got.tobytes() == expected.astype(got.dtype).tobytes()  # -0.0 and 0.0 told apart


def export_ply_oracle(block, labels, palette) -> bytes:
    """The per-line PLY writer that the table writer must match byte for byte."""
    lines = [
        "ply", "format ascii 1.0", f"element vertex {len(block)}", "property float x", "property float y",
        "property float z", "property uchar red", "property uchar green", "property uchar blue", "end_header",
    ]
    for (x, y, z), label in zip(block.xyz, labels):
        r, g, b = palette[int(label)]
        lines.append(f"{x:.6f} {y:.6f} {z:.6f} {int(r)} {int(g)} {int(b)}")
    return ("\n".join(lines) + "\n").encode("ascii")


# every value in every color channel, plus random points with extreme coordinates
ALL_COLORS = np.stack([np.arange(256), 255 - np.arange(256), (7 * np.arange(256)) % 256], axis=1)
COORDS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0, -4e-7, 5e-7, 0.5e-6, -1e15])
POINTS = st.lists(st.tuples(COORDS, COORDS, COORDS, *[st.integers(0, 255)] * 3, st.integers(0, 12)), max_size=40)
VOCAB_13 = tuple(f"class_{i}" for i in range(13))
# rows at the edges of the digit formatter: the smallest subnormal, -0.0, decimals that carry into the
# whole part, coordinates just below its range limit and ints in 0..999, plus at most one value it hands
# to "%": an exact or near tie of x * 1e6 (2.5e-6 * 1e6 is 2.5 in float64, but 2.5e-6 prints 0.000003),
# a coordinate at or beyond the limit, or an int outside 0..999 (negative, 1000, the int64 extremes)
LIMIT = data_module._DIGIT_LIMIT
DIGIT_COORDS = st.sampled_from(
    [5e-324, -5e-324, -0.0, 0.0, 0.0000004, 9.9999996, -99.9999996, 998.9999996, math.nextafter(LIMIT, 0), -998.5]
) | st.floats(-LIMIT, LIMIT, exclude_min=True, exclude_max=True)
DIGIT_INTS = st.sampled_from([0, 9, 10, 99, 100, 999]) | st.integers(0, 999)
PERCENT_VALUES = st.sampled_from(
    [0.0078125, -0.0078125, 0.5e-6, -0.5e-6, 2.5e-6, -1.25e-5, 0.0001235, 2.5000005, LIMIT, -LIMIT, 999.9999996,
     -1234567.25, 1e300, -1, 1000, 2**53 + 1, 2**63 - 1, -(2**63)]
) | st.integers(-10**6, 10**6).map(lambda k: k + 2**-7) | st.integers(-10**7, 10**7).map(lambda k: (k + 0.5) / 1e6)
EDGES = st.tuples(
    st.lists(st.tuples(DIGIT_COORDS, DIGIT_COORDS, DIGIT_COORDS, *[st.integers(0, 255)] * 3, DIGIT_INTS), min_size=1, max_size=8),
    st.none() | PERCENT_VALUES,
)
EDGE_ROW = (-0.0, 5e-324, 998.9999996, 0, 128, 255, 999)


@given(POINTS, st.integers(0, 255), EDGES)
@example([], 0, ([EDGE_ROW], None))
@example([], 0, ([EDGE_ROW], 2.5e-6))
@example([], 0, ([EDGE_ROW], -1))
@example([], 0, ([EDGE_ROW], 2**63 - 1))
@settings(max_examples=40, deadline=None)
def test_room_and_ply_writers_match_the_per_line_oracle(tmp_path_factory, points, shift, edges):
    drawn = np.array(points, dtype=object).reshape(-1, 7)
    room = make_room(
        np.concatenate([np.linspace(-3.0, 3.0, 3 * 256).reshape(-1, 3), drawn[:, :3].astype(np.float64)]),
        rgb=np.concatenate([np.roll(ALL_COLORS, shift, axis=0), drawn[:, 3:6].astype(np.int64)]),
        labels=np.concatenate([np.arange(256) % 4 * 3, drawn[:, 6].astype(np.int64)]),  # classes 0, 3, 6, 9 and drawn ones
    )
    path = tmp_path_factory.mktemp("room") / "office_1.txt"
    write_room(room, path)
    assert path.read_bytes() == write_room_oracle(room)
    back = load_room(path, VOCAB_13)
    assert_room_arrays(back, read_room_oracle(path.read_text()))
    block, ply = make_block(room.xyz, room.rgb, room.labels), path.with_suffix(".ply")
    export_ply(block, block.labels, DEFAULT_PALETTE, ply)
    assert ply.read_bytes() == export_ply_oracle(block, block.labels, DEFAULT_PALETTE)
    # the edge rows alone, so that a table the digits can render still reaches them; labels outside any
    # vocabulary are written, not loaded, and the PLY colors each label with three of the drawn ints
    rows, extra = edges
    edge = np.array(rows, dtype=object).reshape(-1, 7)
    if extra is not None:
        edge[0, 6 if isinstance(extra, int) else 0] = extra
    # a label past one byte fits no Room, so the edge rows go to the formatter that write_room calls in a block
    edge_block = make_block(edge[:, :3].astype(np.float64), edge[:, 3:6].astype(np.int64), edge[:, 6].astype(np.int64))
    assert format_rows(edge_block) == write_room_oracle(edge_block)
    palette = {int(label): (int(label), abs(int(label)) // 2, 255) for label in edge_block.labels}
    export_ply(edge_block, edge_block.labels, palette, ply)
    assert ply.read_bytes() == export_ply_oracle(edge_block, edge_block.labels, palette)


def test_synthetic_rooms_take_the_digit_path(tmp_path, monkeypatch):
    # the speed path must not silently vanish: no synthetic room or block falls back to "%"
    def no_fallback(*args):
        raise AssertionError("a synthetic room was formatted by the % fallback")

    monkeypatch.setattr(data_module, "_percent_rows", no_fallback)
    spec = SyntheticAreaSpec("AreaA", (("office", 2), ("hallway", 1), ("storage", 1)), density=40)
    for room in generate_synthetic_area(spec, seed=7).rooms:
        path = tmp_path / f"{room.name}.txt"
        write_room(room, path)
        assert path.read_bytes() == write_room_oracle(room)
        block = partition_blocks(room)[0]
        export_ply(block, block.labels, DEFAULT_PALETTE, path.with_suffix(".ply"))
        assert path.with_suffix(".ply").read_bytes() == export_ply_oracle(block, block.labels, DEFAULT_PALETTE)


@st.composite
def point_lines(draw):
    """One valid ``x y z r g b label`` line, its fields separated by spaces or tabs."""
    fmt = draw(st.sampled_from(["%r", "%.6f", "%g"]))
    fields = [fmt % draw(st.floats(-1e6, 1e6)) for _ in range(3)] + [str(draw(st.integers(0, 255))) for _ in range(3)]
    fields.append(str(draw(st.integers(0, len(DEFAULT_CLASSES) - 1))))
    return "".join(field + draw(st.sampled_from([" ", "\t", "  "])) for field in fields[:-1]) + fields[-1]


ROOM_LINES = st.one_of(
    point_lines(),
    st.tuples(st.sampled_from(["", " ", "\t"]), point_lines(), st.sampled_from(["", " ", "\t", "\x0c"])).map("".join),
    st.sampled_from(["", "   ", "\t", "\x0c", " \t\x0c "]),  # blank lines
    st.sampled_from(["# header", "  # indented note"]),  # full-line comments
    st.tuples(point_lines(), point_lines()).map("\x0c".join),  # two records on one line: one line to load_room
)
BAD_LINES = ["0 0 0 1 1 1", "0 0 x 1 1 1 0", "0 0 0 1 6.5 1 0", "0 0 0 1 1 1 0 # note", "nan 0 0 1 1 1 0",
             "0 0 0 300 1 1 0", "0 0 0 -1 1 1 0", "0 0 0 1 1 1 99", "0 0 0 1 1 1 -1",
             "0 0 0 1 1 1 99999999999999999999999", "0 0 0 99999999999999999999 1 1 0",  # past int64
             "0 0 0 1 1 1 0_1", "0 0 0 1 1 1 \uff15", "1_0 0 0 1 1 1 0", "\uff11 0 0 1 1 1 0"]  # int() and float() read these


@given(
    st.lists(st.tuples(ROOM_LINES, st.sampled_from(["\n", "\r\n"])), max_size=12),
    st.none() | st.tuples(st.integers(0, 12), st.sampled_from(BAD_LINES)),
    st.booleans(),
    st.integers(1, 4) | st.just(data_module._CHUNK_ROWS),
)
@settings(max_examples=150, deadline=None)
def test_load_room_equals_the_line_oracle(tmp_path_factory, lines, bad, last_newline, chunk_rows):
    # the chunked path and the line-numbered path must agree with a per-line reader on every text; chunks of
    # 1 to 4 lines put comments, blank lines, CR LF ends and bad lines on both sides of chunk boundaries
    if bad is not None:
        lines.insert(bad[0], (bad[1], "\n"))
    if lines and not last_newline:
        lines[-1] = (lines[-1][0], "")
    text = "".join(line + newline for line, newline in lines)
    path = tmp_path_factory.mktemp("room") / "office_1.txt"
    path.write_bytes(text.encode("utf-8"))
    want = load_room_oracle(text, path, len(DEFAULT_CLASSES))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "_CHUNK_ROWS", chunk_rows)
        if isinstance(want, str):
            with pytest.raises(ValidationError) as info:
                load_room(path, DEFAULT_CLASSES)
            assert str(info.value) == want
            return
        assert_room_arrays(load_room(path, DEFAULT_CLASSES), want)


def test_write_file_replaces_whole_or_not_at_all(tmp_path, monkeypatch):
    path = tmp_path / "vocab.txt"
    write_vocab(DEFAULT_CLASSES, path)
    write_file(path, "0 café\n")
    assert path.read_bytes() == "0 café\n".encode("utf-8")
    write_file(path, b"0 wall\n")
    assert path.read_bytes() == b"0 wall\n"

    def lost(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(data_module.os, "replace", lost)
    with pytest.raises(OSError, match="rename failed"):
        write_file(path, "0 floor\n")
    assert path.read_bytes() == b"0 wall\n"
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]
    monkeypatch.undo()
    nested = tmp_path / "new" / "dir" / "vocab.txt"
    write_file(nested, b"0 wall\n")  # the directories that hold it are made
    assert nested.read_bytes() == b"0 wall\n"


def test_format_rows_keeps_integers_above_2_53():
    block = make_block(np.array([[0.5, 0.25, 1.0]]), np.full((1, 3), 128), np.array([2**53 + 1]))
    assert format_rows(block) == write_room_oracle(block) == b"0.500000 0.250000 1.000000 128 128 128 9007199254740993\n"


def test_room_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    room = make_room(rng.uniform(0, 3, size=(20, 3)), labels=rng.integers(0, 3, size=20),
                     rgb=rng.integers(0, 256, size=(20, 3)))
    path = tmp_path / "office_1.txt"
    write_room(room, path)
    back = load_room(path, DEFAULT_CLASSES)
    assert np.allclose(back.xyz, room.xyz, atol=1e-6)
    assert np.array_equal(back.labels, room.labels)
    assert np.array_equal(back.rgb, room.rgb)


def test_vocab_roundtrip(tmp_path):
    path = tmp_path / "vocab.txt"
    write_vocab(DEFAULT_CLASSES, path)
    assert load_vocab(path) == DEFAULT_CLASSES


def test_vocab_requires_contiguous_ids(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("0 floor\n2 wall\n")
    with pytest.raises(ValidationError):
        load_vocab(path)


def test_vocab_holds_at_most_256_classes(tmp_path):
    path = tmp_path / "vocab.txt"
    write_vocab([f"class{i}" for i in range(256)], path)
    assert len(load_vocab(path)) == 256
    write_vocab([f"class{i}" for i in range(257)], path)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: 257 classes, more than the 256 a one-byte label holds$"):
        load_vocab(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 ceiling\n1 floor wall\n", "expected 'label_id class_name'"),
        ("0 ceiling\n\u00b2 extra\n", "expected 'label_id class_name'"),  # passes isdigit, not int()
        ("0 ceiling\n\u0661 floor\n", "expected 'label_id class_name'"),  # int() reads it as 1, but it is not ASCII
        ("0 ceiling\n0 floor\n", "label id 0 is repeated"),
        ("0 ceiling\n1 ceiling\n", "class name 'ceiling' is repeated"),
    ],
    ids=["field_count", "superscript_id", "arabic_indic_id", "repeated_id", "repeated_name"],
)
def test_load_vocab_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "vocab.txt"
    path.write_text(f"# header\n{text}", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
        load_vocab(path)


@pytest.mark.parametrize("stem", ["office", "_1", "office_x", "office_\u00b2"], ids=["no_index", "no_type", "letter", "superscript"])
def test_load_room_file_name_needs_a_decimal_index(tmp_path, stem):
    path = tmp_path / f"{stem}.txt"
    path.write_text(f"{GOOD_LINE}\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: room file name .* is not of the form <room_type>_<index>$"):
        load_room(path, DEFAULT_CLASSES)


def test_load_dataset_reads_the_named_areas_in_name_order_and_ignores_repeats(tmp_path, monkeypatch):
    room = make_room([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    write_vocab(DEFAULT_CLASSES, tmp_path / "vocab.txt")
    for name in ("AreaA", "AreaB", "AreaC"):
        write_room(room, tmp_path / name / f"{room.name}.txt")
    read, load_area = [], data_module.load_area

    def recorded(directory, vocab):
        read.append(Path(directory).name)
        return load_area(directory, vocab)

    monkeypatch.setattr(data_module, "load_area", recorded)
    loaded, vocab = load_dataset(tmp_path, ("AreaC", "AreaA", "AreaC"))
    assert [a.name for a in loaded] == read == ["AreaA", "AreaC"] and vocab == DEFAULT_CLASSES
    del read[:]
    assert [a.name for a in load_dataset(tmp_path)[0]] == read == ["AreaA", "AreaB", "AreaC"]
    del read[:]
    message = f"{tmp_path} has no areas ['Nope']; it has ['AreaA', 'AreaB', 'AreaC']"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_dataset(tmp_path, ("AreaB", "Nope"))
    assert read == []


def test_partition_grid_counts():
    # points spread over a 2.5m x 1.7m footprint touch all 3 x 2 cells
    xs = np.linspace(0, 2.5, 30)
    ys = np.linspace(0, 1.7, 30)
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    xyz = np.concatenate([grid, np.zeros((len(grid), 1))], axis=1)
    blocks = partition_blocks(make_room(xyz))
    assert {b.grid for b in blocks} >= {(i, j) for i in range(3) for j in range(2)}
    interior = [b for b in blocks if b.grid[0] < 3 and b.grid[1] < 2]
    assert len(interior) == 6


def test_partition_single_point():
    blocks = partition_blocks(make_room([[0.4, 0.9, 1.3]]))
    assert len(blocks) == 1 and len(blocks[0]) == 1 and blocks[0].grid == (0, 0)


def test_partition_complete_and_disjoint():
    rng = np.random.default_rng(5)
    room = make_room(rng.uniform(0, 6, size=(10_000, 3)))
    blocks = partition_blocks(room)
    assert sum(len(b) for b in blocks) == len(room)
    mins = room.xyz[:, :2].min(axis=0)
    for block in blocks:
        rel = block.xyz[:, :2] - mins
        assert np.all(rel[:, 0] >= block.grid[0]) and np.all(rel[:, 0] < block.grid[0] + 1)
        assert np.all(rel[:, 1] >= block.grid[1]) and np.all(rel[:, 1] < block.grid[1] + 1)


def test_featurize_ranges_and_corners():
    room = make_room([[0, 0, 0], [2, 2, 2], [1, 1, 1]], rgb=[[0, 0, 0], [255, 255, 255], [128, 128, 128]])
    blocks = partition_blocks(room)
    by_grid = {b.grid: b for b in blocks}
    feats = featurize_block(by_grid[(2, 2)])
    # the room-max corner point normalizes to (1, 1, 1)
    assert np.allclose(feats[0, 6:9], [1.0, 1.0, 1.0])
    # pure white maps to (1, 1, 1) in the color columns
    assert np.allclose(feats[0, 3:6], [1.0, 1.0, 1.0])
    all_feats = np.concatenate([featurize_block(b) for b in blocks])
    assert all_feats[:, 3:9].min() >= 0.0 and all_feats[:, 3:9].max() <= 1.0


def test_featurize_flat_room_degenerate_axis():
    room = make_room([[0, 0, 1.0], [2, 1, 1.0], [1, 0.5, 1.0]])
    feats = featurize_block(partition_blocks(room)[0])
    assert np.all(feats[:, 8] == 0.5)  # flat in z


def test_featurize_xy_centering():
    room = make_room([[0.1, 0.1, 0.0], [0.9, 0.9, 0.0]])
    feats = featurize_block(partition_blocks(room)[0])
    # cell center is at 0.5 + room minimum on each axis
    assert np.allclose(feats[:, 0], [0.1 - 0.6, 0.9 - 0.6])
    assert np.allclose(feats[:, 2], [0.0, 0.0])  # z unshifted


def test_resample_exact_count_is_identity():
    block = partition_blocks(make_room(np.random.default_rng(0).uniform(0, 1, (5, 3))))[0]
    out = resample_block(block, 5, np.random.default_rng(1))
    assert sorted(map(tuple, out.xyz)) == sorted(map(tuple, block.xyz))


def test_resample_upsamples_by_duplication():
    block = partition_blocks(make_room(np.random.default_rng(0).uniform(0, 1, (3, 3))))[0]
    out = resample_block(block, 6, np.random.default_rng(1))
    assert len(out) == 6
    originals = set(map(tuple, block.xyz))
    assert all(tuple(p) in originals for p in out.xyz)


def test_resample_downsamples_without_replacement():
    xyz = np.random.default_rng(2).uniform(0, 1, (10_000, 3))
    block = make_block(xyz=xyz, rgb=np.zeros((10_000, 3), dtype=np.int64), labels=np.arange(10_000))
    out = resample_block(block, 1024, np.random.default_rng(3))
    assert len(out) == 1024
    assert len(set(out.labels.tolist())) == 1024  # all distinct indices


def test_resample_deterministic_and_label_aligned():
    rng = np.random.default_rng(4)
    xyz = rng.uniform(0, 1, (50, 3))
    labels = rng.integers(0, 4, size=50)
    block = make_block(xyz=xyz, rgb=np.zeros((50, 3), dtype=np.int64), labels=labels)
    a = resample_block(block, 20, np.random.default_rng(7))
    b = resample_block(block, 20, np.random.default_rng(7))
    assert np.array_equal(a.xyz, b.xyz)
    lookup = {tuple(p): l for p, l in zip(xyz, labels)}
    assert all(lookup[tuple(p)] == l for p, l in zip(a.xyz, a.labels))


def test_colors_stay_one_byte_from_room_file_to_resampled_block(tmp_path):
    # generated, loaded, partitioned and resampled colors are uint8 and hold the line oracle's values
    spec = SyntheticAreaSpec("AreaA", (("office", 1), ("storage", 1)), density=40)
    for generated in generate_synthetic_area(spec, seed=3).rooms:
        path = tmp_path / f"{generated.name}.txt"
        write_room(generated, path)
        xyz, rgb, labels = read_room_oracle(path.read_text())
        assert generated.rgb.dtype == np.uint8 and np.array_equal(generated.rgb, rgb)
        room = load_room(path, DEFAULT_CLASSES)
        assert_room_arrays(room, (xyz, rgb, labels))
        cells = np.floor(xyz[:, :2] - xyz[:, :2].min(axis=0)).astype(np.int64)
        for block in partition_blocks(room):  # a cell keeps its points in file order
            assert block.rgb.dtype == np.uint8
            assert np.array_equal(block.rgb, rgb[(cells == block.grid).all(axis=1)])
            numbered = replace(block, labels=np.arange(len(block)))  # each resampled point names its source
            for n_points in (len(block), 2 * len(block), max(len(block) // 2, 1)):
                out = resample_block(numbered, n_points, np.random.default_rng(n_points))
                assert out.rgb.dtype == np.uint8 and np.array_equal(out.rgb, block.rgb[out.labels])


@pytest.mark.parametrize("rgb", [np.full((2, 3), 128.0), np.full((2, 3), np.nan), np.ones((2, 3), dtype=bool)],
                         ids=["float", "nan", "bool"])
def test_room_rejects_colors_not_of_an_integer_dtype(rgb):
    # a float color would be truncated on writing and a NaN would pass the range check
    with pytest.raises(ValidationError, match=f"^room office_1: colors must be integers, got dtype {rgb.dtype}$"):
        make_room(np.zeros((2, 3)), rgb=rgb)


@pytest.mark.parametrize("labels", [np.full(2, 1.0), np.full(2, np.nan), np.ones(2, dtype=bool)], ids=["float", "nan", "bool"])
def test_room_rejects_labels_not_of_an_integer_dtype(labels):
    with pytest.raises(ValidationError, match=f"^room office_1: labels must be integers, got dtype {labels.dtype}$"):
        make_room(np.zeros((2, 3)), labels=labels)


@pytest.mark.parametrize("label", [-1, 256, 999, 2**53 + 1])
def test_room_rejects_a_label_outside_one_byte(label):
    # a label is narrowed to uint8 once checked, so a larger one would wrap to another class
    with pytest.raises(ValidationError, match="^room office_1 point 1: label outside \\[0, 255\\]$"):
        make_room(np.zeros((3, 3)), labels=np.array([0, label, 1]))


def test_labels_stay_one_byte_from_room_file_to_block_sample(tmp_path):
    # generated, loaded, partitioned, resampled and materialized labels are uint8 and hold the line oracle's values
    spec = SyntheticAreaSpec("AreaA", (("office", 1), ("storage", 1)), density=40)
    for generated in synthetic_rooms(spec, seed=3):
        path = tmp_path / f"{generated.name}.txt"
        write_room(generated, path)
        labels = read_room_oracle(path.read_text())[2]
        room = load_room(path, DEFAULT_CLASSES)
        for held in (generated, room):
            assert held.labels.dtype == np.uint8 and np.array_equal(held.labels, labels)
        for block in partition_blocks(room):
            assert block.labels.dtype == np.uint8
            assert resample_block(block, 2 * len(block), np.random.default_rng(0)).labels.dtype == np.uint8
        index = index_categories([Area("AreaA", [room], DEFAULT_CLASSES)], points_per_block=16)
        for blocks in index.categories.values():
            assert all(index.materialize(block, 0).labels.dtype == np.uint8 for block in blocks)


@given(st.integers(1, 256).flatmap(lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), min_size=1, max_size=40))))
@settings(max_examples=40, deadline=None)
def test_uint8_labels_give_the_values_and_bytes_of_int64_labels(tmp_path_factory, case):
    # the loss, its gradient, the confusion counts and the room file are the same either way
    m, values = case
    wide = np.array(values, dtype=np.int64)
    narrow = wide.astype(np.uint8)
    rng = np.random.default_rng(len(values))
    logits, xyz = rng.normal(size=(len(values), m)), rng.uniform(0, 3, (len(values), 3))
    predicted = rng.integers(0, m, len(values))

    def loss_and_grad(labels):
        with Tape() as tape:
            leaves = ParamStore({"logits": logits}).tensors()
            loss = cross_entropy(leaves["logits"], labels)
            return loss.item(), grad_array(backward(loss, tape, leaves)["logits"]).tobytes()

    assert loss_and_grad(narrow) == loss_and_grad(wide)
    blocks = [make_block(xyz, np.full((len(values), 3), 128, dtype=np.uint8), labels) for labels in (narrow, wide)]
    counts = [accumulate(np.zeros((m, m), dtype=np.int64), predicted, labels) for labels in (narrow, wide)]
    assert counts[0].dtype == counts[1].dtype and np.array_equal(*counts)
    room, path = make_room(xyz, labels=wide), tmp_path_factory.mktemp("room") / "office_1.txt"
    assert room.labels.dtype == np.uint8  # the Room narrows the int64 labels
    write_room(room, path)
    assert path.read_bytes() == write_room_oracle(blocks[1]) == format_rows(blocks[0])


def test_resample_empty_block_error():
    block = make_block(xyz=np.zeros((0, 3)), rgb=np.zeros((0, 3)), labels=np.zeros(0, dtype=int))
    with pytest.raises(ValidationError):
        resample_block(block, 4, np.random.default_rng(0))


def test_synthetic_bare_room_labels():
    spec = SyntheticAreaSpec(name="A", rooms=(("hallway", 1),), density=40)
    area = generate_synthetic_area(spec, seed=0)
    labels = set(area.rooms[0].labels.tolist())
    names = {DEFAULT_CLASSES[l] for l in labels}
    assert names == {"floor", "ceiling", "wall"}


def test_synthetic_deterministic():
    spec = SyntheticAreaSpec(name="A", rooms=(("office", 2), ("storage", 1)), density=30)
    a = generate_synthetic_area(spec, seed=42)
    b = generate_synthetic_area(spec, seed=42)
    assert len(a.rooms) == 3
    for ra, rb in zip(a.rooms, b.rooms):
        assert np.array_equal(ra.xyz, rb.xyz)
        assert np.array_equal(ra.rgb, rb.rgb)
        assert np.array_equal(ra.labels, rb.labels)


def test_synthetic_densities_honored():
    # a bare hallway is six rectangles; per-surface counts must be round(area * density)
    spec = SyntheticAreaSpec(name="A", rooms=(("hallway", 1),), density=55, color_noise=0, room_tint=0)
    area = generate_synthetic_area(spec, seed=9)
    room = area.rooms[0]
    width = room.xyz[:, 0].max() - room.xyz[:, 0].min()
    depth = room.xyz[:, 1].max() - room.xyz[:, 1].min()
    height = room.xyz[:, 2].max() - room.xyz[:, 2].min()
    floor = (room.labels == DEFAULT_CLASSES.index("floor")).sum()
    ceiling = (room.labels == DEFAULT_CLASSES.index("ceiling")).sum()
    walls = (room.labels == DEFAULT_CLASSES.index("wall")).sum()
    assert abs(floor - width * depth * 55) <= 1
    assert abs(ceiling - width * depth * 55) <= 1
    wall_area = 2 * (width + depth) * height
    assert abs(walls - wall_area * 55) <= 4  # four surfaces, each within +-1



def test_export_ply(tmp_path):
    block = make_block(xyz=np.array([[0.5, 0.5, 0.5]]), rgb=np.zeros((1, 3), dtype=np.int64), labels=np.array([0]))
    path = tmp_path / "out.ply"
    export_ply(block, np.array([0]), {0: (255, 0, 0)}, path)
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    assert "element vertex 1" in text
    assert text[-1].endswith("255 0 0")


def test_export_ply_counts_and_palette(tmp_path):
    rng = np.random.default_rng(0)
    block = make_block(xyz=rng.uniform(0, 1, (17, 3)), rgb=np.zeros((17, 3), dtype=np.int64),
                       labels=rng.integers(0, 3, 17))
    path = tmp_path / "out.ply"
    export_ply(block, block.labels, DEFAULT_PALETTE, path)
    lines = path.read_text().splitlines()
    vertex_line = next(l for l in lines if l.startswith("element vertex"))
    assert int(vertex_line.split()[-1]) == 17
    assert len(lines) == lines.index("end_header") + 1 + 17
    red = DEFAULT_PALETTE[0]
    for line, label in zip(lines[lines.index("end_header") + 1 :], block.labels):
        if label == 0:
            assert line.endswith(f"{red[0]} {red[1]} {red[2]}")


def test_export_ply_missing_palette_class():
    block = make_block(xyz=np.zeros((2, 3)), rgb=np.zeros((2, 3), dtype=np.int64), labels=np.array([0, 4]))
    with pytest.raises(ValidationError, match="4"):
        export_ply(block, block.labels, {0: (1, 2, 3)}, "/tmp/nope.ply")


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_partition_property_random_rooms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    xyz = rng.uniform(-3, 3, size=(n, 3))
    flat = rng.random(3) < 0.25  # some rooms are flat on an axis
    xyz[:, flat] = xyz[0, flat]
    room = make_room(xyz, rgb=rng.integers(0, 256, size=(n, 3)))
    blocks = partition_blocks(room)
    assert sum(len(b) for b in blocks) == n
    assert len({b.grid for b in blocks}) == len(blocks)
    for block in blocks:
        assert featurize_block(block).tobytes() == room_wide_features(block, room).tobytes()
