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

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError

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


@dataclass
class Room:
    name: str
    room_type: str
    xyz: np.ndarray  # [N, 3] meters
    rgb: np.ndarray  # [N, 3] integers in 0..255
    labels: np.ndarray  # [N] class ids

    def __post_init__(self):
        if len(self.xyz) != len(self.labels) or len(self.xyz) != len(self.rgb):
            raise ValidationError(f"room {self.name}: points/colors/labels lengths differ")
        if len(self.xyz) < 1:
            raise ValidationError(f"room {self.name}: empty room")
        if not np.isfinite(self.xyz).all():
            raise ValidationError(f"room {self.name}: non-finite coordinates")
        if self.rgb.min() < 0 or self.rgb.max() > 255:
            raise ValidationError(f"room {self.name}: colors outside [0, 255]")
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

    def __post_init__(self):
        for room in self.rooms:
            if room.labels.min() < 0 or room.labels.max() >= len(self.classes):
                raise ValidationError(
                    f"area {self.name}: room {room.name} has labels outside the {len(self.classes)}-class vocabulary"
                )


# ---------------------------------------------------------------------------
# file formats


def write_vocab(classes, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, name in enumerate(classes):
            fh.write(f"{i} {name}\n")


def _text_lines(path):
    """(line number, stripped line) for each non-blank, non-comment line of a UTF-8 file."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_vocab(path) -> tuple[str, ...]:
    classes = {}
    for lineno, line in _text_lines(path):
        parts = line.split()
        if len(parts) != 2 or not parts[0].isdigit():
            raise ValidationError(f"{path}:{lineno}: expected 'label_id class_name'")
        classes[int(parts[0])] = parts[1]
    if sorted(classes) != list(range(len(classes))):
        raise ValidationError(f"{path}: label ids must be contiguous from 0")
    return tuple(classes[i] for i in range(len(classes)))


def _room_name_parts(stem: str) -> tuple[str, int]:
    room_type, _, index = stem.rpartition("_")
    if not room_type or not index.isdigit():
        raise ValidationError(f"room file name {stem!r} is not of the form <room_type>_<index>")
    return room_type, int(index)


def load_room(path, vocab) -> Room:
    """Parse one canonical room file, validating labels against the vocabulary."""
    path = Path(path)
    room_type, _ = _room_name_parts(path.stem)
    xyz, rgb, labels = [], [], []
    for lineno, line in _text_lines(path):
        parts = line.split()
        if len(parts) != 7:
            raise ValidationError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
        try:
            x, y, z = (float(v) for v in parts[:3])
            r, g, b = (int(v) for v in parts[3:6])
            label = int(parts[6])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if not (0 <= r <= 255 and 0 <= g <= 255 and 0 <= b <= 255):
            raise ValidationError(f"{path}:{lineno}: color out of range [0, 255]")
        if not (0 <= label < len(vocab)):
            raise ValidationError(f"{path}:{lineno}: label {label} not in vocabulary of size {len(vocab)}")
        xyz.append((x, y, z))
        rgb.append((r, g, b))
        labels.append(label)
    if not xyz:
        raise ValidationError(f"{path}: empty room file")
    return Room(
        name=path.stem,
        room_type=room_type,
        xyz=np.asarray(xyz, dtype=np.float64),
        rgb=np.asarray(rgb, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
    )


def write_room(room: Room, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for (x, y, z), (r, g, b), label in zip(room.xyz, room.rgb, room.labels):
            fh.write(f"{x:.6f} {y:.6f} {z:.6f} {int(r)} {int(g)} {int(b)} {int(label)}\n")


def load_area(directory, vocab, name: str | None = None) -> Area:
    directory = Path(directory)
    rooms = [load_room(p, vocab) for p in sorted(directory.glob("*.txt"))]
    if not rooms:
        raise ValidationError(f"{directory}: no room files found")
    return Area(name=name or directory.name, rooms=rooms, classes=tuple(vocab))


def write_area(area: Area, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for room in area.rooms:
        write_room(room, directory / f"{room.name}.txt")


def load_dataset(root) -> tuple[list[Area], tuple[str, ...]]:
    """Load every area directory under ``root`` plus the shared vocab.txt."""
    root = Path(root)
    vocab = load_vocab(root / "vocab.txt")
    areas = [load_area(p, vocab) for p in sorted(root.iterdir()) if p.is_dir()]
    if not areas:
        raise ValidationError(f"{root}: no area directories found")
    return areas, vocab


def write_dataset(areas, classes, root) -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    write_vocab(classes, root / "vocab.txt")
    for area in areas:
        write_area(area, root / area.name)


# ---------------------------------------------------------------------------
# blocks and features


def partition_blocks(room: Room) -> list[Block]:
    """Cut a room into half-open 1m grid cells over its XY bounding box.

    Cells are anchored at (x_min, y_min); every point lands in exactly one
    cell and empty cells are omitted.  Z is never partitioned: blocks are
    full-height columns.  Each block carries the room's min and extent.
    """
    room_min = room.xyz.min(axis=0)
    room_extent = room.xyz.max(axis=0) - room_min
    cells = np.floor(room.xyz[:, :2] - room_min[:2]).astype(np.int64)
    blocks = []
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    boundaries = np.nonzero(np.any(np.diff(sorted_cells, axis=0), axis=1))[0] + 1
    for chunk in np.split(order, boundaries):
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


def dominant_class(block: Block) -> int:
    """Most frequent label in the block; ties go to the lowest class id."""
    counts = np.bincount(block.labels)
    return int(np.argmax(counts))


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
    templates: dict = field(default_factory=lambda: DEFAULT_TEMPLATES)


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
        colors = np.clip(color + noise, 0, 255).astype(np.int64)
        xyz.append(pts)
        rgb.append(colors)
        labels.append(np.full(len(pts), class_id[label], dtype=np.int64))

    return Room(
        name=name,
        room_type=template.room_type,
        xyz=np.concatenate(xyz),
        rgb=np.concatenate(rgb),
        labels=np.concatenate(labels),
    )


def generate_synthetic_area(spec: SyntheticAreaSpec, seed: int) -> Area:
    """Procedurally build one labeled area; bit-identical per (spec, seed)."""
    rooms = []
    counter = 0
    for room_type, count in spec.rooms:
        if room_type not in spec.templates:
            raise ValidationError(f"no template for room type {room_type!r}")
        for i in range(count):
            rng = np.random.default_rng([seed, counter])
            rooms.append(_generate_room(spec.templates[room_type], spec, f"{room_type}_{i + 1}", rng))
            counter += 1
    return Area(name=spec.name, rooms=rooms, classes=spec.classes)


# ---------------------------------------------------------------------------
# PLY export


def export_ply(block: Block, labels, palette, path) -> None:
    """ASCII PLY of the block's points colored per label via the palette."""
    labels = np.asarray(labels)
    if len(labels) != len(block):
        raise ValidationError(f"labels length {len(labels)} != point count {len(block)}")
    missing = sorted(set(labels.tolist()) - set(palette))
    if missing:
        raise ValidationError(f"palette has no colors for classes {missing}")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(block)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    for (x, y, z), label in zip(block.xyz, labels):
        r, g, b = palette[int(label)]
        lines.append(f"{x:.6f} {y:.6f} {z:.6f} {int(r)} {int(g)} {int(b)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
