"""Contract fuzzing of the files a command reads besides its JSON configs: room files, vocab.txt and palettes.

Each example breaks one file of a small valid dataset and runs every command that reads that file through
``cli.main``.  Each must exit 2, 4 or 5 with a message that names the broken file, print no traceback and
write no output.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pointmeta.cli import main
from pointmeta.data import _CHUNK_ROWS

SPEC = {"density": 40, "areas": [{"name": name, "rooms": {"office": 2, "hallway": 2}} for name in ("AreaA", "AreaB")]}
ROOMS = ("hallway_1", "hallway_2", "office_1", "office_2")
CLASSES = 6  # the classes synth writes to vocab.txt by default
RUN_CONFIG = {
    "data": {"points_per_block": 16},
    "episode": {"ways": 2, "shots": 2},
    "model": {"mlp1_widths": [4], "mlp2_widths": [8], "seg_head_widths": [4]},
    "meta": {"epochs": 1, "steps_per_epoch": 0},
    "eval": {"episodes": 1},
}


def commands(tmp: Path, room: Path, checkpoint: Path, palette=None) -> list:
    """(command, argv) of every command that reads the dataset ``tmp/data``; the run config of pretrain and
    cross-validate is written to tmp."""
    data = tmp / "data"
    config = tmp / "run.json"
    config.write_text(json.dumps({**RUN_CONFIG, "data": {**RUN_CONFIG["data"], "root": str(data)}}))
    return [
        ("ingest", ["--data", data]),
        ("pretrain", ["--config", config, "--out", tmp / "run"]),
        ("cross-validate", ["--config", config, "--out", tmp / "cv"]),
        ("adapt-eval", ["--checkpoint", checkpoint, "--data", data, "--shots", 2, "--episodes", 1, "--out", tmp / "eval"]),
        ("export-ply", ["--checkpoint", checkpoint, "--room", room, "--vocab", data / "vocab.txt",
                        *(["--palette", palette] if palette else []), "--out", tmp / "ply"]),
    ]


def run(command: str, argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, *map(str, argv)])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> Path:
    """A two-area dataset under ``data/`` that every command reads without error, and ``run/ckpt_epoch1``."""
    root = tmp_path_factory.mktemp("contract")
    (root / "spec.json").write_text(json.dumps(SPEC))
    assert run("synth", ["--spec", root / "spec.json", "--out", root / "data"]) == (0, "")
    (root / "data" / "manifest.json").unlink()
    for command, argv in commands(root, root / "data/AreaA/office_1.txt", root / "run/ckpt_epoch1"):
        assert run(command, argv) == (0, ""), command
    return root


def check_broken(clean: Path, mutate, only=None, named="") -> None:
    """Break a copy of the clean dataset with ``mutate(tmp)``, which returns the broken file, and run each command
    (those named in ``only`` when given); each message names the broken file, followed by ``named`` when given."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(clean / "data", tmp / "data")
        broken = mutate(tmp)
        room = broken if broken.parent.name == "AreaA" else tmp / "data/AreaA/office_1.txt"  # export-ply's --room
        checkpoint = clean / "run/ckpt_epoch1"
        palette = broken if broken.suffix == ".json" else None
        runs = [(command, argv) for command, argv in commands(tmp, room, checkpoint, palette) if only is None or command in only]
        before = sorted(tmp.iterdir())
        for command, argv in runs:
            code, err = run(command, argv)
            assert code in (2, 4, 5), (command, err)
            assert f"{broken}{named}" in err and "Traceback" not in err, (command, err)
            assert sorted(tmp.iterdir()) == before, command  # no output written


# ---------------------------------------------------------------------------
# room files

BAD_FIELDS = {  # values a column cannot hold, each to be reported at its line
    range(0, 3): ["x", "nan", "inf", "-inf", "1,5", "1e400", "0x1", "1_0"],
    range(3, 6): ["256", "-1", "1.5", "x", "1e2", "nan", "99999999999999999999", "+"],
    range(6, 7): ["-1", str(CLASSES), "99", "1.0", "x", "nan", "٣"],
}


@st.composite
def room_mutations(draw):
    """One way to break a room file: a field's value, the field count, the bytes, the points or the file name."""
    how = draw(st.sampled_from(["field", "drop field", "extra field", "trailing note", "not utf-8", "no points", "name"]))
    target, line = draw(st.sampled_from(ROOMS)), draw(st.integers(0, 1000))
    if how == "field":
        columns = draw(st.sampled_from(sorted(BAD_FIELDS, key=lambda r: r.start)))
        return how, target, line, (draw(st.sampled_from(columns)), draw(st.sampled_from(BAD_FIELDS[columns])))
    if how == "drop field":
        return how, target, line, draw(st.integers(0, 6))
    if how == "name":
        return how, target, line, draw(st.sampled_from(["office", "office_x", "office_", "throne_1", "_1", "office_²",
                                                        "office_-1", "office_1.5"]))
    return how, target, line, None


def break_room(tmp: Path, mutation) -> Path:
    how, target, line, arg = mutation
    path = tmp / "data" / "AreaA" / f"{target}.txt"
    lines = path.read_text().splitlines()
    at = line % len(lines)
    fields = lines[at].split()
    if how == "field":
        column, value = arg
        fields[column] = value
    elif how == "drop field":
        del fields[arg]
    elif how in ("extra field", "trailing note"):
        fields.append("0" if how == "extra field" else "# note")
    lines[at] = " ".join(fields)
    blob = ("\n".join(lines) + "\n").encode()
    if how == "no points":
        blob = b"# every point removed\n\n"
    elif how == "not utf-8":
        cut = sum(len(text) + 1 for text in lines[:at])
        blob = blob[:cut] + b"\xff" + blob[cut:]
    path.write_bytes(blob)
    return path.rename(path.with_name(f"{arg}.txt")) if how == "name" else path


@given(room_mutations())
@settings(max_examples=200, deadline=None)
def test_broken_room_file_contract(clean, mutation):
    # ingest, pretrain, cross-validate and adapt-eval meet the room in their room stream, export-ply as its --room
    event(mutation[0])
    check_broken(clean, lambda tmp: break_room(tmp, mutation))


@pytest.mark.parametrize(
    "bad, named",
    [("0 0 0 1 1 1", ": expected 'x y z r g b label'"), (f"0 0 0 1 1 1 {CLASSES}", f": label not in the {CLASSES}-class vocabulary")],
    ids=["malformed", "out_of_vocabulary"],
)
def test_a_bad_line_in_a_later_chunk_is_named_at_its_own_line(clean, bad, named):
    # a room file is parsed chunk by chunk, and a failure is looked up on its whole text, so the line named is
    # the file's own line, not one counted from the start of its chunk
    at = _CHUNK_ROWS + 100  # 0-based, in the second of three chunks

    def mutate(tmp: Path) -> Path:
        path = tmp / "data/AreaA/office_1.txt"
        lines = path.read_text().splitlines()
        lines = (lines * (3 * _CHUNK_ROWS // len(lines) + 1))[: 3 * _CHUNK_ROWS]
        lines[at] = bad
        path.write_text("\n".join(lines) + "\n")
        return path

    check_broken(clean, mutate, named=f":{at + 1}{named}")


# ---------------------------------------------------------------------------
# vocab.txt


@st.composite
def vocab_mutations(draw):
    """One way to break vocab.txt that load_vocab sees: a repeat, a gap, a field, the bytes."""
    how = draw(st.sampled_from(["repeat id", "repeat name", "gap", "one field", "three fields", "bad id", "not utf-8"]))
    line = draw(st.integers(0, CLASSES - 2))  # the line at fault; a gap needs a line after it
    other = (line + draw(st.integers(1, CLASSES - 1))) % CLASSES  # another line
    return how, line, other, draw(st.sampled_from(["x", "-1", "+1", "1.0", "²", "0x1", "", "١"]))


def break_vocab(tmp: Path, mutation) -> Path:
    how, line, other, bad_id = mutation
    path = tmp / "data" / "vocab.txt"
    rows = [text.split() for text in path.read_text().splitlines()]
    assert [int(label) for label, _ in rows] == list(range(CLASSES))
    if how in ("repeat id", "repeat name"):
        column = 0 if how == "repeat id" else 1
        rows[line][column] = rows[other][column]
    elif how == "gap":
        del rows[line]
    elif how == "one field":
        del rows[line][1]
    elif how == "three fields":
        rows[line].append("extra")
    elif how == "bad id":
        rows[line][0] = bad_id
    blob = "".join(" ".join(row) + "\n" for row in rows).encode()
    path.write_bytes(blob + b"\xff\n" if how == "not utf-8" else blob)
    return path


@given(vocab_mutations())
@example(("bad id", 1, 0, "١"))  # int() reads it as the very id it replaces, so only the ASCII rule rejects it
@settings(max_examples=100, deadline=None)
def test_broken_vocab_contract(clean, mutation):
    event(mutation[0])
    check_broken(clean, lambda tmp: break_vocab(tmp, mutation))


def test_vocab_of_more_classes_than_a_label_byte_holds(clean):
    # a label is one byte in memory, so a vocabulary of 257 classes is refused where it is read
    def mutate(tmp: Path) -> Path:
        path = tmp / "data" / "vocab.txt"
        path.write_text("".join(f"{i} class{i}\n" for i in range(257)))
        return path

    check_broken(clean, mutate, named=": 257 classes, more than the 256 a one-byte label holds")


@pytest.mark.parametrize("size", [CLASSES + 1, CLASSES - 1])
def test_vocab_of_another_size_than_the_checkpoint_names_the_vocab(clean, tmp_path, size):
    # a well-formed vocabulary that the checkpoint's class count does not match
    shutil.copytree(clean / "data", tmp_path / "data")
    vocab = tmp_path / "data" / "vocab.txt"
    vocab.write_text("".join(f"{i} class{i}\n" for i in range(size)))
    loading = [(command, argv) for command, argv in commands(tmp_path, tmp_path / "data/AreaA/office_1.txt",
                                                             clean / "run/ckpt_epoch1")
               if command in ("adapt-eval", "export-ply")]  # the commands that load the checkpoint
    for command, argv in loading:
        code, err = run(command, argv)
        assert code == 2 and f"{vocab}: vocabulary size {size} != checkpoint classes {CLASSES}" in err, (command, err)


# ---------------------------------------------------------------------------
# palettes

BAD_COLORS = [256, -1, 1.5, "12", True, None, [1, 2], [1, 2, 3, 4], [1, 2, "3"], [1, 2, 256], [0, -1, 0], "red", {}]
BAD_KEYS = ["a", "-1", "1.0", "", " 1", "²", "0x1", "١"]


@st.composite
def palette_mutations(draw):
    """One way to break a palette: a color, a key, a class id spelt twice, a missing class, or the file not being a
    JSON object."""
    how = draw(st.sampled_from(["color", "key", "repeated id", "missing class", "not an object", "not json",
                                "not utf-8"]))
    cls = draw(st.integers(0, CLASSES - 1))
    if how == "color":
        return how, cls, draw(st.sampled_from(BAD_COLORS))
    if how == "key":
        return how, cls, draw(st.sampled_from(BAD_KEYS))
    if how == "not an object":
        return how, cls, draw(st.sampled_from([[], [[1, 2, 3]], 5, "palette", None]))
    return how, cls, None


def break_palette(tmp: Path, mutation) -> Path:
    how, cls, value = mutation
    palette = {str(i): [10 * i, 20, 30] for i in range(CLASSES)}
    if how == "color":
        palette[str(cls)] = value
    elif how == "key":
        palette[value] = [1, 2, 3]
    elif how == "repeated id":
        palette[f"0{cls}"] = [1, 2, 3]
    elif how == "missing class":
        del palette[str(cls)]
    text = json.dumps(value if how == "not an object" else palette)
    blob = {"not json": text[:-1].encode(), "not utf-8": text.encode() + b"\xff"}.get(how, text.encode())
    path = tmp / "palette.json"
    path.write_bytes(blob)
    return path


@given(palette_mutations())
@settings(max_examples=100, deadline=None)
def test_broken_palette_contract(clean, mutation):
    event(mutation[0])
    check_broken(clean, lambda tmp: break_palette(tmp, mutation), only=["export-ply"])


def test_a_palette_class_id_spelt_twice_is_named(clean):
    # "3" and "03" are one class id, so neither color is kept in silence
    def mutate(tmp: Path) -> Path:
        return break_palette(tmp, ("repeated id", 3, None))

    check_broken(clean, mutate, only=["export-ply"], named=" 03: class id 3 is repeated")
