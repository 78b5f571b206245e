"""Room ingestion, block partitioning, featurization, and synthetic scenes.

Rooms are flat text files ("x y z r g b label" per line) grouped in one
directory per area, with a shared "label_id class_name" vocabulary file.
Rooms are cut into 1m x 1m full-height columns; each column becomes a
[P, 9] feature block: block-centered XY, raw Z, RGB in [0, 1], and
room-normalized coordinates in [0, 1].

The synthetic generator builds labeled indoor rooms out of axis-aligned
rectangles (floor/ceiling planes, wall slabs, box furniture sampled on
their faces), which is enough structure for the network to have something
to learn while staying desk-scale.
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError

ROOM_TYPES = (
    "office",
    "conference_room",
    "auditorium",
    "lobby",
    "lounge",
    "hallway",
    "copy_room",
    "pantry",
    "open_space",
    "storage",
    "wc",
)

DEFAULT_CLASSES = ("ceiling", "floor", "wall", "table", "chair", "box")

DEFAULT_PALETTE = {
    0: (230, 230, 235),
    1: (145, 115, 85),
    2: (170, 180, 195),
    3: (150, 95, 45),
    4: (60, 70, 150),
    5: (200, 160, 110),
    6: (90, 160, 90),
    7: (200, 80, 80),
    8: (230, 200, 70),
    9: (120, 200, 210),
    10: (160, 110, 190),
    11: (240, 140, 60),
    12: (110, 110, 110),
}


def check_points(name, xyz, rgb, labels, n_classes: int | None = None, linenos=None) -> None:
    """Raise a ValidationError naming the first point that breaks a point rule.

    Rules: at least one point, finite XYZ and RGB in 0..255 (unless ``xyz`` is None), and a
    label in [0, n_classes) when ``n_classes`` is given, else in 0..255, the range of one byte.
    A point is named ``name:linenos[row]``, else ``name point row``.
    """
    if len(labels) == 0:
        raise ValidationError(f"{name}: empty room, no points")
    if n_classes is None:
        rules = [((labels < 0) | (labels > 255), "label outside [0, 255]")]
    else:
        rules = [((labels < 0) | (labels >= n_classes), f"label not in the {n_classes}-class vocabulary")]
    if xyz is not None:
        rules += [
            (~np.isfinite(xyz).all(axis=1), "non-finite coordinates"),
            (((rgb < 0) | (rgb > 255)).any(axis=1), "color outside [0, 255]"),
        ]
    row, what = min([(int(np.argmax(bad)), what) for bad, what in rules if bad.any()], default=(0, None))
    if what:
        raise ValidationError(f"{name}:{linenos[row]}: {what}" if linenos is not None else f"{name} point {row}: {what}")


@dataclass
class Room:
    name: str
    room_type: str
    xyz: np.ndarray  # [N, 3] meters
    rgb: np.ndarray  # [N, 3] uint8 once checked: any integer dtype in, values in 0..255
    labels: np.ndarray  # [N] class ids, uint8 once checked: any integer dtype in, values in 0..255

    def __post_init__(self):
        if len(self.xyz) != len(self.labels) or len(self.xyz) != len(self.rgb):
            raise ValidationError(f"room {self.name}: points/colors/labels lengths differ")
        for what, values in (("colors", self.rgb), ("labels", self.labels)):
            if values.dtype.kind not in "iu":  # a float would be truncated, a NaN pass the range check
                raise ValidationError(f"room {self.name}: {what} must be integers, got dtype {values.dtype}")
        check_points(f"room {self.name}", self.xyz, self.rgb, self.labels)
        self.rgb, self.labels = self.rgb.astype(np.uint8, copy=False), self.labels.astype(np.uint8, copy=False)
        if self.room_type not in ROOM_TYPES:
            raise ValidationError(f"room {self.name}: unknown room type {self.room_type!r}")

    def __len__(self):
        return len(self.labels)


@dataclass
class Block:
    """One grid cell's points plus the room frame they are featurized in."""

    grid: tuple[int, int]
    xyz: np.ndarray
    rgb: np.ndarray
    labels: np.ndarray
    center: np.ndarray  # [3] cell center, Z = 0
    room_min: np.ndarray  # [3]
    room_extent: np.ndarray  # [3] room max - min

    def __len__(self):
        return len(self.labels)


@dataclass
class Area:
    name: str
    rooms: list[Room]
    classes: tuple[str, ...]

    def __post_init__(self):  # each Room checked its points; only the vocabulary is new here
        for room in self.rooms:
            check_points(f"area {self.name} room {room.name}", None, None, room.labels, len(self.classes))


# ---------------------------------------------------------------------------
# file formats


def write_vocab(classes, path) -> None:
    write_file(path, "".join(f"{i} {name}\n" for i, name in enumerate(classes)))


def write_file(path, data) -> None:
    """Write ``data`` (bytes, str as UTF-8, or an iterable of bytes written piece by piece) to ``<path>.tmp``,
    then rename that over ``path``.

    The directory that holds ``path`` is made if it is missing.  A killed command leaves the old
    file or the new one, never part of one; there is no fsync, so a power cut can still lose the write.
    """
    tmp = Path(f"{path}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            for piece in [data] if isinstance(data, (bytes, str)) else data:
                fh.write(piece.encode("utf-8") if isinstance(piece, str) else piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(rows) -> str:
    """``rows`` as CSV text with LF line ends, the format of every CSV output."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def read_text(path) -> str:
    """The whole UTF-8 file, its CR LF and CR line ends read as LF."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _text_lines(text) -> list[str]:
    """The lines of ``text`` split at LF alone (not at a form feed), each full-line ``#`` comment blanked so index + 1 is its line."""
    lines, lineno, at = text.split("\n"), 0, -1
    while (next_at := text.find("#", at + 1)) >= 0:  # only lines holding a "#" are looked at
        lineno, at = lineno + text.count("\n", at + 1, next_at), next_at
        if lines[lineno].lstrip().startswith("#"):
            lines[lineno] = ""
    return lines


def load_vocab(path) -> tuple[str, ...]:
    classes = {}
    for lineno, line in enumerate(_text_lines(read_text(path)), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2 or not (parts[0].isascii() and parts[0].isdecimal()):
            raise ValidationError(f"{path}:{lineno}: expected 'label_id class_name'")
        label, name = int(parts[0]), parts[1]
        if label in classes or name in classes.values():
            what = f"label id {label}" if label in classes else f"class name {name!r}"
            raise ValidationError(f"{path}:{lineno}: {what} is repeated")
        classes[label] = name
    if sorted(classes) != list(range(len(classes))):
        raise ValidationError(f"{path}: label ids must be contiguous from 0")
    if len(classes) > 256:
        raise ValidationError(f"{path}: {len(classes)} classes, more than the 256 a one-byte label holds")
    return tuple(classes[i] for i in range(len(classes)))


ROOM_DTYPE = np.dtype([("xyz", "f8", 3), ("rgb", "i8", 3), ("labels", "i8")])


def _parse_points(lines) -> np.ndarray | None:
    """The ``x y z r g b label`` table of ``lines``, or None if a line is malformed."""
    if not any(map(str.strip, lines)):
        return np.zeros(0, ROOM_DTYPE)  # loadtxt warns on input without data
    try:  # full-line comments are already blanked, so a trailing "# note" is a field count error
        return np.loadtxt(lines, dtype=ROOM_DTYPE, comments=None, ndmin=1)
    except ValueError:
        return None


_CHUNK_ROWS = 4096  # room file lines parsed, and rows formatted, at a time
_SCAN_CHUNK = 256  # lines parsed together while looking for the malformed one


def _first_malformed(lines) -> int:
    """Index of the first line of ``lines`` that does not parse: chunk by chunk, then line by line in the failing chunk."""
    start = next(at for at in range(0, len(lines), _SCAN_CHUNK) if _parse_points(lines[at:at + _SCAN_CHUNK]) is None)
    return next(at for at in range(start, start + _SCAN_CHUNK) if _parse_points(lines[at:at + 1]) is None)


def _raise_at_bad_line(path, lines, n_classes: int, first: int) -> None:
    """Name ``path:line`` of the first of ``lines``, which start at line ``first``, that breaks a rule, if one does."""
    linenos, kept = zip(*[(lineno, stripped) for lineno, line in enumerate(lines, start=first) if (stripped := line.strip())])
    table = _parse_points(kept)
    bad = None if table is not None else _first_malformed(kept)
    if bad != 0:  # a point rule broken before the malformed line is reported first
        table = table if bad is None else _parse_points(kept[:bad])
        check_points(path, table["xyz"], table["rgb"], table["labels"], n_classes, linenos)
    if bad is not None:
        try:  # loadtxt rejects an integer past int64, which int() reads, out of range, as the per-line reader does
            x, y, z, *ints = kept[bad].split()
            r, g, b, label = [min(max(int(v), -1), 256) for v in ints]
            check_points(path, np.array([[x, y, z]], float), np.array([[r, g, b]]), np.array([label]), n_classes, linenos[bad:])
        except ValueError:  # a wrong field count, or a field that does not parse
            pass
        raise ValidationError(f"{path}:{linenos[bad]}: expected 'x y z r g b label' with integer r g b label, got {kept[bad]!r}")


def _below(values, limit: int) -> bool:
    return 0 <= values.min(initial=0) and values.max(initial=0) < limit


def _parse_room(path, text, n_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float64 xyz and uint8 rgb and labels of room file ``path``'s ``text``, parsed ``_CHUNK_ROWS`` lines or so at a time.

    The arrays are allocated once for every line and trimmed to the points.  Each chunk is checked against every
    rule a line can break: its coordinates once copied, its int64 colors and labels before they are narrowed.  The
    first chunk that breaks one is scanned on its own for the ``path:line`` it names, so an error holds no more than a
    valid load does.
    """
    n_lines, n_classes = text.count("\n") + 1, min(n_classes, 256)  # a label past 255 cannot be narrowed
    xyz, rgb, labels = np.empty((n_lines, 3)), np.empty((n_lines, 3), np.uint8), np.empty(n_lines, np.uint8)
    span, start, first, n = max(len(text) * _CHUNK_ROWS // n_lines, 1), 0, 1, 0  # characters of about _CHUNK_ROWS lines
    while start < len(text):
        end = text.find("\n", start + span)
        end = len(text) if end < 0 else end
        lines = _text_lines(text[start:end])
        table = _parse_points(lines)
        if table is not None:  # the finite check reads the contiguous copy: on the strided field it took as long again
            rows = slice(n, n + len(table))
            xyz[rows] = table["xyz"]
        if table is None or not (np.isfinite(xyz[rows]).all() and _below(table["rgb"], 256) and _below(table["labels"], n_classes)):
            _raise_at_bad_line(path, lines, n_classes, first)
        rgb[rows], labels[rows] = table["rgb"], table["labels"]
        n, start, first = rows.stop, end + 1, first + len(lines)
        del lines, table  # before the next chunk is split, so one chunk is in flight
    if not n:  # raises: blank and comment lines hold no point
        check_points(path, None, None, labels[:0])
    for values in (xyz, rgb, labels):
        values.resize((n, *values.shape[1:]), refcheck=False)  # in place: no view of them is out yet
    return xyz, rgb, labels


def load_room(path, vocab) -> Room:
    """Parse one room file, read once; ``_parse_room`` names the ``path:line`` of the first line that breaks a rule."""
    path = Path(path)
    room_type, _, index = path.stem.rpartition("_")
    if not room_type or not index.isdecimal():
        raise ValidationError(f"{path}: room file name {path.stem!r} is not of the form <room_type>_<index>")
    points = _parse_room(path, read_text(path), len(vocab))
    try:
        return Room(path.stem, room_type, *points)
    except ValidationError as exc:  # every line is sound, so the room type is at fault
        raise ValidationError(f"{path}: {exc}") from exc


def _group_table(before: str, lead: bool, after: str) -> np.ndarray:
    """``before + g + after`` of each 3-digit group g as 4 0-padded bytes viewed as one uint32; ``lead`` turns
    the leading zeros of g into 0 bytes, keeping its last digit."""
    groups = (str(g).rjust(3, "\0") if lead else f"{g:03d}" for g in range(1000))
    return np.frombuffer("".join((before + g + after).ljust(4, "\0") for g in groups).encode("ascii"), np.uint32)


_DIGIT_LIMIT = 999.0  # |x| below it has a whole part of one group, and |x| * 1e6 cannot overflow
_WHOLE = np.concatenate([_group_table("", True, ""), _group_table("-", True, "")])  # row g + 1000 * signbit
_FIRST_DECIMALS = _group_table(".", False, "")
_LAST_DECIMALS = _group_table("", False, " ")  # an int column always follows
_INTS = {end: _group_table("", True, end) for end in " \n"}


def _percent_rows(floats, ints) -> bytes:
    """The rows of ``_format_rows`` through one ``%``, for the tables its digit groups cannot render exactly."""
    table = np.empty((len(floats), 3 + ints.shape[1]), dtype=object)  # Python floats and ints: no int rounds
    table[:, :3], table[:, 3:] = floats, ints
    return (("%.6f %.6f %.6f" + " %d" * ints.shape[1] + "\n") * len(floats) % tuple(table.ravel().tolist())).encode()


def _format_rows(floats, ints) -> bytes:
    """``"%.6f %.6f %.6f" + " %d" * k + "\\n"`` of each row of ``floats`` [N, 3] and ``ints`` [N, k >= 1], exactly.

    Each field is looked up per 3-digit group as 4-byte slots, 0 bytes where it prints nothing, and
    one pass drops the 0 bytes of the whole table.  ``%`` formats a table the groups cannot render
    exactly: a coordinate whose x * 1e6 is within 4 ulp of a half (exact ties like 1/128 among them),
    at or beyond ``_DIGIT_LIMIT`` or not finite; an int outside 0..999; columns not floats and ints.
    """
    digits = floats.dtype.kind == "f" and ints.dtype.kind in "iu"
    if digits:  # the range is checked before multiplying, so the product cannot overflow
        magnitude = np.abs(floats.astype(np.float64, copy=False))
        digits = (magnitude < _DIGIT_LIMIT).all() and 0 <= ints.min(initial=0) and ints.max(initial=0) < 1000
    if digits:
        scaled = magnitude * 1e6
        fixed = np.rint(scaled)
        digits = not (np.abs(scaled - fixed) + scaled * 2.0**-50 >= 0.5).any()  # 2**-50 * y >= 4 * spacing(y)
    if not digits:
        return _percent_rows(floats, ints)
    micros = fixed.astype(np.int64).T  # |x| in millionths, one row per column
    whole, thousandths = micros // 10**6, micros // 1000
    slots = []
    for c in range(3):
        slots += [_WHOLE.take(whole[c] + 1000 * np.signbit(floats[:, c])),
                  _FIRST_DECIMALS.take(thousandths[c] - whole[c] * 1000),
                  _LAST_DECIMALS.take(micros[c] - thousandths[c] * 1000)]
    ends = [" "] * (ints.shape[1] - 1) + ["\n"]
    slots += [_INTS[end].take(column) for column, end in zip(ints.T.astype(np.intp), ends)]
    return np.array(slots).T.tobytes().translate(None, b"\0")


def write_room(room: Room, path) -> None:
    """The room's points as ``x y z r g b label`` lines, formatted ``_CHUNK_ROWS`` rows at a time."""
    rows = (slice(at, at + _CHUNK_ROWS) for at in range(0, len(room), _CHUNK_ROWS))
    write_file(path, (_format_rows(room.xyz[r], np.column_stack([room.rgb[r], room.labels[r]])) for r in rows))


def write_rooms(rooms, directory) -> Iterator[Room]:
    """Each of ``rooms``, handed on once it is written as ``<directory>/<room name>.txt``.

    A ``map``, unlike a loop variable, holds no room while the next is made, so a caller that drops
    each room before asking for the next holds one room at a time.
    """
    def written(room):
        write_room(room, Path(directory) / f"{room.name}.txt")
        return room

    return map(written, rooms)


def read_rooms(directory, vocab) -> Iterator[Room]:
    """The rooms of one area directory in file name order, each parsed only when the caller asks for it.

    So a caller that drops each room before asking for the next holds one room at a time.
    """
    paths = sorted(Path(directory).glob("*.txt"))
    if not paths:
        raise ValidationError(f"{directory}: no room files found")
    for path in paths:
        yield load_room(path, vocab)


def load_area(directory, vocab) -> Area:
    return Area(name=Path(directory).name, rooms=list(read_rooms(directory, vocab)), classes=tuple(vocab))


def find_areas(root, names=()) -> tuple[list[Path], tuple[str, ...]]:
    """The shared vocab.txt and, in name order, the directories under ``root`` of the areas named in ``names``
    (all when empty); no room is read."""
    root = Path(root)
    vocab = load_vocab(root / "vocab.txt")
    present = sorted(p.name for p in root.iterdir() if p.is_dir())
    unknown = sorted(set(names) - set(present))
    if unknown:
        raise ConfigError(f"{root} has no areas {unknown}; it has {present}")
    directories = [root / name for name in present if not names or name in names]
    if not directories:
        raise ValidationError(f"{root}: no area directories found")
    return directories, vocab


def load_dataset(root, names=()) -> tuple[list[Area], tuple[str, ...]]:
    """``find_areas(root, names)`` with every area read."""
    directories, vocab = find_areas(root, names)
    return [load_area(directory, vocab) for directory in directories], vocab


# ---------------------------------------------------------------------------
# blocks and features


def _cell_runs(room: Room) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The room's min corner, each point's 1m grid cell, and the points of each non-empty cell in cell order.

    Cells are half-open and anchored at (x_min, y_min), so every point lands in exactly one.
    """
    room_min = room.xyz.min(axis=0)
    cells = np.floor(room.xyz[:, :2] - room_min[:2]).astype(np.int64)
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    i, j = cells[:, 0][order], cells[:, 1][order]
    return room_min, cells, np.split(order, np.flatnonzero((i[1:] != i[:-1]) | (j[1:] != j[:-1])) + 1)


def count_blocks(room: Room) -> int:
    """``len(partition_blocks(room))``, without building a block."""
    return len(_cell_runs(room)[2])


def partition_blocks(room: Room) -> list[Block]:
    """Cut a room into half-open 1m grid cells over its XY bounding box.

    Cells are anchored at (x_min, y_min); every point lands in exactly one
    cell and empty cells are omitted.  Z is never partitioned: blocks are
    full-height columns.  Each block carries the room's min and extent.
    """
    room_min, cells, runs = _cell_runs(room)
    room_extent = room.xyz.max(axis=0) - room_min
    blocks = []
    for chunk in runs:
        i, j = cells[chunk[0]]
        blocks.append(
            Block(
                grid=(int(i), int(j)),
                xyz=room.xyz[chunk],
                rgb=room.rgb[chunk],
                labels=room.labels[chunk],
                center=np.append(room_min[:2] + (cells[chunk[0]] + 0.5), 0.0),
                room_min=room_min,
                room_extent=room_extent,
            )
        )
    return blocks


def featurize_block(block: Block) -> np.ndarray:
    """[P, 9] float32 features: centered XY + raw Z, RGB/255, room-normalized XYZ.

    A degenerate room extent on an axis normalizes to 0.5 there.
    """
    flat = block.room_extent == 0
    normalized = (block.xyz - block.room_min) / np.where(flat, 1.0, block.room_extent)
    normalized[:, flat] = 0.5
    features = np.concatenate([block.xyz - block.center, block.rgb / 255.0, normalized], axis=1)
    return features.astype(np.float32)


def resample_block(block: Block, n_points: int, rng: np.random.Generator) -> Block:
    """Fix the point count: subsample without replacement, or duplicate."""
    if len(block) < 1:
        raise ValidationError("cannot resample an empty block")
    if n_points < 1:
        raise ValidationError(f"n_points must be >= 1, got {n_points}")
    if len(block) == n_points:
        idx = np.arange(n_points)
    elif len(block) > n_points:
        idx = rng.choice(len(block), size=n_points, replace=False)
    else:
        idx = rng.integers(0, len(block), size=n_points)
    return replace(block, xyz=block.xyz[idx], rgb=block.rgb[idx], labels=block.labels[idx])


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass(frozen=True)
class FurnitureSpec:
    label: str
    count: tuple[int, int]
    footprint: tuple[float, float]  # side length range, meters
    height: tuple[float, float]
    color: tuple[int, int, int]


@dataclass(frozen=True)
class RoomTemplate:
    room_type: str
    width: tuple[float, float]
    depth: tuple[float, float]
    height: tuple[float, float] = (2.4, 2.8)
    furniture: tuple[FurnitureSpec, ...] = ()
    wall_color: tuple[int, int, int] = (170, 180, 195)
    floor_color: tuple[int, int, int] = (145, 115, 85)
    ceiling_color: tuple[int, int, int] = (230, 230, 235)

    @property
    def labels(self) -> set[str]:
        return {"floor", "ceiling", "wall"} | {item.label for item in self.furniture}


TABLE = FurnitureSpec("table", (1, 3), (0.8, 1.6), (0.65, 0.8), (150, 95, 45))
BIG_TABLE = FurnitureSpec("table", (1, 1), (2.0, 3.0), (0.7, 0.8), (150, 95, 45))
CHAIR = FurnitureSpec("chair", (2, 5), (0.4, 0.55), (0.8, 1.0), (60, 70, 150))
SOFA = FurnitureSpec("chair", (2, 3), (0.9, 1.6), (0.5, 0.8), (100, 50, 60))
BOX = FurnitureSpec("box", (3, 7), (0.4, 0.9), (0.4, 1.6), (200, 160, 110))
COUNTER = FurnitureSpec("box", (1, 2), (0.8, 1.4), (0.85, 0.95), (190, 175, 150))

DEFAULT_TEMPLATES = {
    "office": RoomTemplate("office", (3.0, 4.5), (3.0, 4.5), furniture=(TABLE, CHAIR)),
    "conference_room": RoomTemplate("conference_room", (4.0, 6.0), (4.0, 6.0), furniture=(BIG_TABLE, CHAIR)),
    "hallway": RoomTemplate("hallway", (1.6, 2.2), (5.0, 8.0)),
    "storage": RoomTemplate("storage", (2.5, 3.5), (2.5, 3.5), furniture=(BOX,)),
    "pantry": RoomTemplate("pantry", (2.5, 3.5), (2.5, 3.5), furniture=(COUNTER, BOX)),
    "lounge": RoomTemplate("lounge", (3.0, 4.5), (3.0, 4.5), furniture=(SOFA, TABLE)),
}


@dataclass(frozen=True)
class SyntheticAreaSpec:
    name: str
    rooms: tuple[tuple[str, int], ...]  # (room_type, how many)
    density: float = 110.0  # points per square meter of surface
    color_noise: float = 6.0
    room_tint: float = 14.0  # per-room wall/floor color shift
    classes: tuple[str, ...] = DEFAULT_CLASSES

    def __post_init__(self):  # everything ingest must read back: one directory, a vocabulary, known room types
        if not self.name.isprintable() or "/" in self.name or self.name in ("", ".", ".."):
            raise ConfigError(f"area name must be one path component, got {self.name!r}")
        if not (np.isfinite(self.density) and self.density > 0):
            raise ConfigError(f"density must be finite and > 0, got {self.density}")
        if not (np.isfinite(self.color_noise) and self.color_noise >= 0):
            raise ConfigError(f"color_noise must be finite and >= 0, got {self.color_noise}")
        if not 0 <= self.room_tint <= 255:  # a larger shift only saturates the colors
            raise ConfigError(f"room_tint must be in [0, 255], got {self.room_tint}")
        for room_type, count in self.rooms:
            if room_type not in DEFAULT_TEMPLATES:
                raise ConfigError(f"no synthetic template for room type {room_type!r}")
            if count < 0:
                raise ConfigError(f"rooms.{room_type} must be >= 0, got {count}")
        if sum(count for _, count in self.rooms) < 1:
            raise ConfigError(f"area {self.name}: rooms must hold at least one room")
        one_word = all(c.isprintable() and c.split() == [c] for c in self.classes)
        if not one_word or len(set(self.classes)) < len(self.classes):
            raise ConfigError(f"classes must be distinct one-word names, got {list(self.classes)}")
        missing = set().union(*(DEFAULT_TEMPLATES[t].labels for t, _ in self.rooms)) - set(self.classes)
        if missing:
            raise ConfigError(f"classes must name every template label, missing {sorted(missing)}")


def _sample_rect(rng, fixed_axis: int, level: float, lo: tuple[float, float], hi: tuple[float, float], density: float) -> np.ndarray:
    """Uniform points on an axis-aligned rectangle; count = round(area * density)."""
    spans = [(lo[0], hi[0]), (lo[1], hi[1])]
    area = (spans[0][1] - spans[0][0]) * (spans[1][1] - spans[1][0])
    count = max(int(round(area * density)), 1)
    free = [ax for ax in range(3) if ax != fixed_axis]
    pts = np.empty((count, 3))
    pts[:, fixed_axis] = level
    for (a, b), ax in zip(spans, free):
        pts[:, ax] = rng.uniform(a, b, size=count)
    return pts


def _box_faces(x0, y0, z0, x1, y1, z1):
    """Top plus four sides of an axis-aligned box (bottom face omitted)."""
    return [
        (2, z1, (x0, y0), (x1, y1)),
        (0, x0, (y0, z0), (y1, z1)),
        (0, x1, (y0, z0), (y1, z1)),
        (1, y0, (x0, z0), (x1, z1)),
        (1, y1, (x0, z0), (x1, z1)),
    ]


def _generate_room(template: RoomTemplate, spec: SyntheticAreaSpec, name: str, rng: np.random.Generator) -> Room:
    width = rng.uniform(*template.width)
    depth = rng.uniform(*template.depth)
    height = rng.uniform(*template.height)
    class_id = {c: i for i, c in enumerate(spec.classes)}
    tint = rng.integers(-spec.room_tint, spec.room_tint + 1, size=3) if spec.room_tint else np.zeros(3)

    surfaces = [
        ("floor", np.asarray(template.floor_color) + tint, (2, 0.0, (0.0, 0.0), (width, depth))),
        ("ceiling", np.asarray(template.ceiling_color), (2, height, (0.0, 0.0), (width, depth))),
    ]
    wall_color = np.asarray(template.wall_color) + tint
    for axis, level, lo, hi in (
        (0, 0.0, (0.0, 0.0), (depth, height)),
        (0, width, (0.0, 0.0), (depth, height)),
        (1, 0.0, (0.0, 0.0), (width, height)),
        (1, depth, (0.0, 0.0), (width, height)),
    ):
        surfaces.append(("wall", wall_color, (axis, level, lo, hi)))

    for item in template.furniture:
        for _ in range(int(rng.integers(item.count[0], item.count[1] + 1))):
            side = rng.uniform(*item.footprint)
            tall = rng.uniform(*item.height)
            x0 = rng.uniform(0.1, max(width - side - 0.1, 0.11))
            y0 = rng.uniform(0.1, max(depth - side - 0.1, 0.11))
            for face in _box_faces(x0, y0, 0.0, x0 + side, y0 + side, tall):
                surfaces.append((item.label, np.asarray(item.color), face))

    xyz, rgb, labels = [], [], []
    for label, color, (axis, level, lo, hi) in surfaces:
        pts = _sample_rect(rng, axis, level, lo, hi, spec.density)
        noise = rng.normal(scale=spec.color_noise, size=(len(pts), 3)) if spec.color_noise else np.zeros((len(pts), 3))
        colors = np.clip(color + noise, 0, 255).astype(np.uint8)
        xyz.append(pts)
        rgb.append(colors)
        labels.append(np.full(len(pts), class_id[label], dtype=np.uint8))

    return Room(
        name=name,
        room_type=template.room_type,
        xyz=np.concatenate(xyz),
        rgb=np.concatenate(rgb),
        labels=np.concatenate(labels),
    )


def synthetic_rooms(spec: SyntheticAreaSpec, seed: int) -> Iterator[Room]:
    """Procedurally build the labeled rooms of one area in ``spec.rooms`` order, each only when asked for.

    Room k draws from its own generator seeded ``[seed, k]``, so the rooms are bit-identical per (spec, seed).
    """
    names = [(room_type, f"{room_type}_{i + 1}") for room_type, count in spec.rooms for i in range(count)]
    for k, (room_type, name) in enumerate(names):
        yield _generate_room(DEFAULT_TEMPLATES[room_type], spec, name, np.random.default_rng([seed, k]))


def generate_synthetic_area(spec: SyntheticAreaSpec, seed: int) -> Area:
    """Every room of ``synthetic_rooms(spec, seed)`` as one area."""
    return Area(name=spec.name, rooms=list(synthetic_rooms(spec, seed)), classes=spec.classes)


# ---------------------------------------------------------------------------
# PLY export


def export_ply(block: Block, labels, palette, path) -> None:
    """ASCII PLY of the block's points colored per label via the palette."""
    labels = np.asarray(labels)
    if len(labels) != len(block):
        raise ValidationError(f"labels length {len(labels)} != point count {len(block)}")
    classes, inverse = np.unique(labels, return_inverse=True)
    missing = sorted(set(classes.tolist()) - set(palette))
    if missing:
        raise ValidationError(f"palette has no colors for classes {missing}")
    colors = np.array([palette[int(c)] for c in classes]).reshape(-1, 3)[inverse]
    header = (
        f"ply\nformat ascii 1.0\nelement vertex {len(block)}\nproperty float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
    )
    write_file(path, header.encode("ascii") + _format_rows(block.xyz, colors))
