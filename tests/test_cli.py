import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from pointmeta import cli
from pointmeta.autodiff import grad_array
from pointmeta.cli import _area_specs_from_json, _parse_run_config, main
from pointmeta.data import _CHUNK_ROWS, DEFAULT_CLASSES, DEFAULT_PALETTE, load_dataset
from pointmeta.model import load_checkpoint
from pointmeta.sampler import CategoryIndex, index_categories

from helpers import CHUNK_IN_FLIGHT

SYNTH_SPEC = {
    "density": 40,
    "color_noise": 5,
    "areas": [
        {"name": "AreaA", "rooms": {"office": 2, "hallway": 2, "storage": 2}},
        {"name": "AreaB", "rooms": {"office": 2, "hallway": 2, "storage": 2}},
    ],
}

RUN_CONFIG = {
    "data": {"root": None, "areas": ["AreaA"], "points_per_block": 32},
    "episode": {"ways": 2, "shots": 2, "queries": 1},
    "model": {"mlp1_widths": [8, 8], "mlp2_widths": [8, 16], "seg_head_widths": [8]},
    "meta": {"alpha": 1e-3, "beta": 1e-3, "epochs": 2, "steps_per_epoch": 3},
    "seeds": {"init": 0, "tasks": 1},
}


def dataset_inputs(root: Path, *areas: str) -> list[str]:
    """The manifest input keys of a command that read ``areas`` under ``root``: the vocabulary and every area file."""
    files = [p for area in areas for p in (root / area).rglob("*") if p.is_file()]
    return [f"{root}/vocab.txt", *(f"{root}/{p.relative_to(root)}" for p in files)]


def manifest_inputs(out: Path) -> list[str]:
    return sorted(json.loads((out / "manifest.json").read_text())["inputs"])


def tree_hashes(root: Path) -> dict:
    # manifest.json records the (path-dependent) input fingerprints, so byte
    # comparisons across reruns cover everything else
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    out = root / "data"
    assert main(["synth", "--spec", str(spec_path), "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def pretrained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(dataset)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    run_dir = out / "train"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    return run_dir


def test_synth_layout_and_determinism(dataset, tmp_path):
    assert (dataset / "vocab.txt").exists()
    assert sorted(p.name for p in dataset.iterdir() if p.is_dir()) == ["AreaA", "AreaB"]
    assert (dataset / "manifest.json").exists()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    again = tmp_path / "data2"
    assert main(["synth", "--spec", str(spec_path), "--seed", "7", "--out", str(again)]) == 0
    assert tree_hashes(dataset) == tree_hashes(again)


def test_synth_block_counts_match_partitioner(dataset, tmp_path, capsys):
    from pointmeta.data import partition_blocks

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    assert main(["synth", "--spec", str(spec_path), "--seed", "7", "--out", str(tmp_path / "d")]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        if "blocks" in line:
            printed[line.split(":")[0]] = int(line.split()[-2])
    areas, _ = load_dataset(tmp_path / "d")
    for area in areas:
        recount = sum(len(partition_blocks(room)) for room in area.rooms)
        assert printed[area.name] == recount


def test_synth_bad_spec(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"areas": [{"name": "X", "rooms": {"throne_room": 1}}]}))
    code = main(["synth", "--spec", str(spec), "--seed", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "throne_room" in capsys.readouterr().err


@pytest.mark.parametrize(
    "update, named",
    [
        ({"density": "abc"}, "density"),
        ({"areas": [{"name": "X", "rooms": {"office": "x"}}]}, "rooms.office"),
        ({"areas": [1]}, "areas"),
        ({"classes": 5}, "classes"),
        ({"color_noise": -1}, "color_noise"),
        ({"room_tint": -1}, "room_tint"),
        ({"room_tint": 1e300}, "room_tint"),
        ({"density": "nan"}, "density"),
        ({"density": -5}, "density"),
        ({"density": 0}, "density"),
        ({"areas": [{"name": "X", "rooms": {"office": -1}}]}, "rooms.office"),
        ({"areas": [{"name": "X", "rooms": {"office": 2.5}}]}, "rooms.office"),
        ({"areas": [{"name": "X", "rooms": {"office": 0}}]}, "rooms"),
        ({"classes": []}, "['box', 'ceiling', 'chair', 'floor', 'table', 'wall']"),
        ({"classes": list(DEFAULT_CLASSES[:-1])}, "['box']"),
        ({"classes": [*DEFAULT_CLASSES, "wall"]}, "distinct"),
        ({"classes": [*DEFAULT_CLASSES, "coffee table"]}, "'coffee table'"),
        ({"areas": [{"name": "", "rooms": {"office": 1}}]}, "area name"),
        ({"areas": [{"name": "a/b", "rooms": {"office": 1}}]}, "'a/b'"),
        ({"areas": [{"name": "..", "rooms": {"office": 1}}]}, "'..'"),
        ({"areas": [{"name": "A", "rooms": {"office": 1}}, {"name": "A", "rooms": {"hallway": 1}}]}, "distinct"),
        ({"areas": [{"name": "manifest.json", "rooms": {"office": 1}}]}, "'manifest.json'"),
        ({"areas": [{"name": "A", "rooms": {"office": 1}}, {"name": "vocab.txt", "rooms": {"office": 1}}]}, "'vocab.txt'"),
        ({"areas": [{"name": 5, "rooms": {"office": 1}}]}, "name: cannot read 5 as str"),
        ({"classes": [*DEFAULT_CLASSES, 1]}, "classes: cannot read"),
        ({"areas": [[["name", "A"], ["rooms", {"office": 1}]]]}, "areas: cannot read"),
        ({"density": "70"}, "density: cannot read '70'"),
        ({"areas": [{"name": "X", "rooms": {"office": 2.0}}]}, "rooms.office: cannot read 2.0"),
        ({"densty": 70}, "densty: unknown key"),
        ({"areas": [{"name": "A", "rooms": {"office": 1}, "extra": 1}]}, "extra: unknown key"),
        # a room type is read as the key it is, not as a dotted path into the rooms object
        ({"areas": [{"name": "X", "rooms": {"office.x": "1"}}]}, "rooms.office.x: cannot read '1' as int"),
        ({"areas": [{"name": "X", "rooms": {"office.x": 1}}]}, "no synthetic template for room type 'office.x'"),
    ],
    ids=[
        "density", "room_count", "area_entry", "classes", "negative_color_noise", "negative_room_tint",
        "huge_room_tint", "nan_density", "negative_density", "zero_density", "negative_room_count",
        "fractional_room_count", "no_rooms",
        "no_classes", "missing_class", "repeated_class", "class_with_space", "empty_area_name", "area_name_path",
        "area_name_parent", "repeated_area_name", "area_named_manifest", "area_named_vocab", "numeric_area_name",
        "numeric_class", "area_as_key_value_pairs", "string_density", "whole_float_room_count",
        "misspelt_key", "unknown_area_key", "dotted_room_type_string_count", "dotted_room_type",
    ],
)
def test_synth_bad_spec_value_usage_error(tmp_path, capsys, update, named):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({**SYNTH_SPEC, **update}))
    assert main(["synth", "--spec", str(spec), "--seed", "0", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert named in err and str(spec) in err


# density <= 40 keeps synthesis fast; the valid class lists hold every template label, in any order
VALID = {
    "density": st.floats(0.5, 40),
    "color_noise": st.floats(0, 30),
    "room_tint": st.floats(0, 255),
    "classes": st.permutations([*DEFAULT_CLASSES, "lamp"]),
    "name": st.text("AB_. ", min_size=1, max_size=3).filter(lambda name: name not in (".", "..")),
    "rooms": st.dictionaries(st.sampled_from(["office", "hallway", "storage", "pantry", "lounge"]), st.integers(1, 2), min_size=1, max_size=2),
}
# the class lists miss template labels, repeat names, hold a space or a non-string (a few happen to be valid)
INVALID = {
    "density": st.sampled_from([0, -5, "abc", float("nan"), float("inf")]),
    "color_noise": st.sampled_from([-1, float("nan"), "x"]),
    "room_tint": st.sampled_from([-1, 256, 1e300, float("nan")]),
    "classes": st.lists(st.sampled_from([*DEFAULT_CLASSES, "big box", "", 1, None]), max_size=8),
    "name": st.sampled_from(["", ".", "..", "a/b", "A\x00", "manifest.json", "vocab.txt", 5, True, {"A": 1}]),
    "rooms": st.dictionaries(
        st.sampled_from(["office", "throne_room"]), st.one_of(st.integers(-1, 0), st.just("two")), max_size=2
    ),
}


@st.composite
def synth_specs(draw):
    """A valid spec, or one with one or two of its values replaced by ones the spec must reject."""
    broken = draw(st.one_of(st.just(set()), st.sets(st.sampled_from(sorted(VALID)), min_size=1, max_size=2)))

    def value(key):
        return draw((INVALID if key in broken else VALID)[key])

    areas = [{"name": value("name"), "rooms": value("rooms")} for _ in range(draw(st.integers(1, 2)))]
    return {key: value(key) for key in ("density", "color_noise", "room_tint", "classes")} | {"areas": areas}


@given(synth_specs())
@settings(max_examples=40, deadline=None)
def test_synth_spec_contract(spec):
    # a spec either fails with a usage error naming its file, or holds only JSON strings for its
    # names and classes and writes a dataset that ingest reads back
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, out = Path(tmp) / "spec.json", Path(tmp) / "data"
        spec_path.write_text(json.dumps(spec))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["synth", "--spec", str(spec_path), "--out", str(out)])
            event(f"exit {code}")
            assert code in (0, 2), err.getvalue()
            if code == 2:
                assert str(spec_path) in err.getvalue()
            else:
                assert all(isinstance(name, str) for name in [*spec["classes"], *(a["name"] for a in spec["areas"])])
                assert main(["ingest", "--data", str(out)]) == 0, err.getvalue()


def test_ingest_prints_stats(dataset, capsys):
    assert main(["ingest", "--data", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "AreaA" in out and "AreaB" in out and "blocks" in out


def test_ingest_missing_dir(tmp_path):
    assert main(["ingest", "--data", str(tmp_path / "nope")]) in (2, 5)


def test_commands_hold_one_area_or_room(tmp_path, monkeypatch):
    # synth and ingest hold one room and one chunk of rows at a time, pretrain and adapt-eval build their index
    # one room at a time, and cross-validate builds one index per area that way, so each command's traced peak
    # stays below what holding more would take
    spec = {"density": 160, "areas": [{"name": name, "rooms": {"office": 4, "hallway": 4, "storage": 4}}
                                      for name in ("AreaA", "AreaB", "AreaC")]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    data = tmp_path / "data"
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"] |= {"root": str(data), "areas": ["AreaA", "AreaB"]}
    cfg["meta"] |= {"epochs": 1, "steps_per_epoch": 0}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    cfg["meta"]["beta_sweep"] = [1e-3, 0]
    cfg["eval"] = {"episodes": 1}
    (tmp_path / "cv.json").write_text(json.dumps(cfg))

    def peak(*argv) -> int:
        argv = [str(arg) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # a first run pays numpy's lazy imports, which a traced peak would count
        gc.collect()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def nbytes(items) -> int:
        return sum(item.xyz.nbytes + item.rgb.nbytes + item.labels.nbytes for item in items)

    synth_peak = peak("synth", "--spec", tmp_path / "spec.json", "--out", data)
    areas, _ = load_dataset(data)
    rooms = [room for area in areas for room in area.rooms]
    largest = max(nbytes([room]) for room in rooms)
    largest_file = max(path.stat().st_size for path in data.glob("*/*.txt"))
    one_area = min(nbytes(area.rooms) for area in areas)  # a command holding any area passes each bound
    assert max(map(len, rooms)) > 3 * _CHUNK_ROWS  # the largest room is several chunks long
    assert synth_peak < largest + CHUNK_IN_FLIGHT < one_area
    reading = largest_file + largest + CHUNK_IN_FLIGHT  # a room being read holds its file's text besides its arrays
    assert peak("ingest", "--data", data) < reading < one_area
    read = areas[:2]
    indexed = nbytes(block for blocks in index_categories(read, points_per_block=32).categories.values()
                     for block in blocks)
    held = nbytes(room for area in read for room in area.rooms) + indexed
    assert peak("pretrain", "--config", tmp_path / "cfg.json", "--out", tmp_path / "run") < held
    assert peak("adapt-eval", "--checkpoint", tmp_path / "run" / "ckpt_epoch1", "--data", data, "--areas",
                "AreaA,AreaB", "--shots", "2", "--episodes", "2", "--out", tmp_path / "eval") < held
    # cross-validate holds its areas' blocks and the room being read, not the rooms as well, and indexes each area
    # once for every rate
    assert peak("cross-validate", "--config", tmp_path / "cv.json", "--out", tmp_path / "cv") < indexed + reading
    built, init = [], CategoryIndex.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CategoryIndex, "__init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cross-validate", "--config", str(tmp_path / "cv.json"), "--out", str(tmp_path / "cv")]) == 0
    assert len(built) == len(read)


@pytest.mark.parametrize("target", ["AreaA/office_1.txt", "vocab.txt"])
def test_ingest_non_utf8_usage_error(dataset, tmp_path, capsys, target):
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    broken = copy / target
    if target == "vocab.txt":
        broken.write_bytes(b"\xff")
    else:
        broken.write_bytes(broken.read_bytes() + b"\xff\xfe")
    assert main(["ingest", "--data", str(copy)]) == 2
    assert f"{broken}: not UTF-8 text (invalid start byte)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "pretrain", "cross-validate", "export-ply"])
def test_json_input_not_utf8_usage_error(dataset, pretrained, tmp_path, capsys, command):
    # JSON inputs are decoded as room and vocab files are, so bad bytes exit 2 naming the file
    broken, out = tmp_path / "input.json", tmp_path / "out"
    broken.write_bytes(b'{"density": 40}\xff')
    room = next((dataset / "AreaB").glob("office_*.txt"))
    argv = {
        "synth": ["--spec", str(broken)],
        "pretrain": ["--config", str(broken)],
        "cross-validate": ["--config", str(broken)],
        "export-ply": ["--checkpoint", str(pretrained / "ckpt_epoch2"), "--room", str(room),
                       "--vocab", str(dataset / "vocab.txt"), "--palette", str(broken)],
    }[command]
    assert main([command, *argv, "--out", str(out)]) == 2
    assert f"{broken}: not UTF-8 text (invalid start byte)" in capsys.readouterr().err
    assert not out.exists()


def test_commands_read_only_the_areas_they_name(dataset, pretrained, tmp_path, capsys):
    # a malformed line in an area no run names stops only ingest, which reads every area
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    shutil.copytree(copy / "AreaA", copy / "AreaC")
    broken = copy / "AreaC" / "office_1.txt"
    lines = broken.read_text().splitlines(keepends=True)
    lines[2] = "1 2 3 x y z 0\n"
    broken.write_text("".join(lines))
    cfg = json.loads(json.dumps(RUN_CONFIG))  # data.areas names AreaA only
    cfg["data"]["root"] = str(copy)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "train")]) == 0
    assert main(["adapt-eval", "--checkpoint", str(pretrained / "ckpt_epoch2"), "--data", str(copy), "--areas", "AreaA",
                 "--shots", "2", "--episodes", "1", "--out", str(tmp_path / "eval")]) == 0
    # each manifest lists what its command read: the vocabulary and AreaA, not AreaB, AreaC or synth's manifest
    assert manifest_inputs(tmp_path / "train") == sorted([str(cfg_path), *dataset_inputs(copy, "AreaA")])
    assert manifest_inputs(tmp_path / "eval") == sorted([str(pretrained / "ckpt_epoch2"), *dataset_inputs(copy, "AreaA")])
    capsys.readouterr()
    assert main(["ingest", "--data", str(copy)]) == 2
    assert f"{broken}:3: expected" in capsys.readouterr().err


@pytest.mark.parametrize("superscript_in", ["vocab", "room_name"])
def test_ingest_superscript_digit_usage_error(dataset, tmp_path, capsys, superscript_in):
    # "\u00b2" passes str.isdigit but not int(), which used to escape as a ValueError
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    if superscript_in == "vocab":
        (copy / "vocab.txt").write_text("0 ceiling\n\u00b2 extra\n", encoding="utf-8")
        named = f"{copy / 'vocab.txt'}:2: "
    else:
        renamed = (copy / "AreaA/office_1.txt").rename(copy / "AreaA/office_\u00b2.txt")
        named = f"{renamed}: room file name 'office_\u00b2' is not of the form"
    assert main(["ingest", "--data", str(copy)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "stem, message",
    [("throne_1", "room throne_1: unknown room type 'throne'"),
     ("office_x", "room file name 'office_x' is not of the form <room_type>_<index>"),
     # an Arabic-Indic digit is decimal to str.isdecimal, but a room index is ASCII digits
     ("office_\u0661", "room file name 'office_\u0661' is not of the form <room_type>_<index>")],
)
def test_ingest_room_file_name_errors_name_the_file(dataset, tmp_path, capsys, stem, message):
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    renamed = copy / "AreaB" / f"{stem}.txt"
    (copy / "AreaB/office_1.txt").rename(renamed)
    assert main(["ingest", "--data", str(copy)]) == 2
    assert capsys.readouterr().err == f"error: {renamed}: {message}\n"


@pytest.mark.parametrize("color", [256, -1])
def test_ingest_color_outside_one_byte_names_the_line(dataset, tmp_path, capsys, color):
    # the file is parsed as int64, so a color a uint8 would wrap is still reported at its line
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    room = copy / "AreaB/office_1.txt"
    lines = room.read_text().splitlines(keepends=True)
    fields = lines[2].split()
    lines[2] = " ".join(fields[:4] + [str(color)] + fields[5:]) + "\n"
    room.write_text("".join(lines))
    assert main(["ingest", "--data", str(copy)]) == 2
    assert capsys.readouterr().err == f"error: {room}:3: color outside [0, 255]\n"


def test_pretrain_outputs(pretrained):
    names = {p.name for p in pretrained.iterdir()}
    assert {"ckpt_epoch0", "ckpt_epoch1", "ckpt_epoch2", "loss.csv", "manifest.json"} <= names
    assert not [name for name in names if name.endswith(".tmp")]  # every file renamed into place
    with open(pretrained / "loss.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "query_loss", "beta", "alpha"]
    assert len(rows) == 1 + 6  # 2 epochs x 3 steps


def test_pretrain_zero_steps_checkpoint_equals_init(dataset, tmp_path):
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(dataset)
    cfg["meta"]["epochs"] = 0
    cfg["meta"]["steps_per_epoch"] = 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "zero"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, params = load_checkpoint(out / "ckpt_epoch0")
    from pointmeta.model import PointNetConfig, init_params

    reference = init_params(
        PointNetConfig(num_classes=6, mlp1_widths=(8, 8), mlp2_widths=(8, 16), seg_head_widths=(8,), points_per_block=32),
        seed=0,
    )
    assert all(np.array_equal(params[n], reference[n]) for n in reference.keys())


def test_pretrain_missing_data_path(tmp_path):
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(tmp_path / "missing")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) in (2, 5)


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("episode", "ways", "two", "episode.ways"),
        ("meta", "alpha", [1e-3], "meta.alpha"),
        ("meta", "collaborative", False, "meta.collaborative: unknown key"),
        ("data", "points_per_block", "abc", "data.points_per_block"),
        ("seeds", "tasks", "x", "seeds.tasks"),
        ("seeds", "init", "x", "seeds.init"),
        ("meta", "phase_betas", 5, "meta.phase_betas"),  # an unknown key, whatever its value
        ("model", "mlp1_widths", 8, "model.mlp1_widths"),
        ("model", "use_tnet", "no", "model.use_tnet"),
        ("model", "input_dim", 8, "model.input_dim"),
        ("data", "areas", ["AreaA", "Nope", "Nope"], "['Nope']"),
        ("meta", "alpha", float("nan"), "alpha"),
        ("meta", "beta", float("nan"), "beta"),
        ("meta", "beta_sweep", [float("nan")], "beta"),
        ("meta", "beta_sweep", [1e-2, float("nan")], "beta"),
        ("meta", "phase_betas", [1e-3, float("nan")], "phase_betas"),  # an unknown key, whatever its value
        ("seeds", "init", -1, "seeds.init"),
        ("seeds", "tasks", -1, "seeds.tasks"),
        ("episode", "shots", 6.5, "episode.shots"),
        ("episode", "ways", float("inf"), "episode.ways"),
        ("meta", "inner_steps", True, "meta.inner_steps"),
        ("model", "mlp2_widths", [8, 16.5], "model.mlp2_widths"),
        ("seeds", "init", 0.5, "seeds.init"),
        ("meta", "alpha", True, "meta.alpha"),
        ("meta", "beta_sweep", [0.001, 0.0010000001], "meta.beta_sweep: two of [0.001, 0.0010000001]"),
        ("meta", "beta_sweep", [1e-3, 1e-3], "meta.beta_sweep: two of [0.001, 0.001]"),
        ("data", "root", 5, "data.root"),
        ("data", "areas", ["AreaA", 1], "data.areas"),
        ("episode", "category_mode", 5, "episode.category_mode"),  # an unknown key: a category is a room type
        ("meta", "gradient_mode", True, "meta.gradient_mode"),
        # a JSON value is read only as its own type: no string number, no whole float
        ("episode", "ways", "2", "episode.ways: cannot read '2'"),
        ("meta", "alpha", "1e-3", "meta.alpha: cannot read '1e-3'"),
        ("episode", "shots", 6.0, "episode.shots: cannot read 6.0"),
        ("data", "points_per_block", "16", "data.points_per_block: cannot read '16'"),
        ("model", "mlp1_widths", ["8"], "model.mlp1_widths: cannot read ['8']"),
        ("model", "mlp1_widths", [8.0], "model.mlp1_widths: cannot read [8.0]"),
        ("model", "mlp2_widths", [8.0], "model.mlp2_widths: cannot read [8.0]"),
        ("seeds", "init", "0", "seeds.init: cannot read '0'"),
        # a key the reader does not read
        ("meta", "steps_per_epoc", 5, "meta.steps_per_epoc: unknown key"),
        # a range error of the dataclass that owns the value names its dotted key
        ("meta", "alpha", -1, "meta.alpha must be finite and > 0, got -1.0"),
        ("episode", "ways", 0, "episode.ways must be >= 1, got 0"),
        ("model", "seg_head_widths", [0], "model.seg_head_widths must be integers >= 1"),
        ("data", "points_per_block", 0, "data.points_per_block must be an integer >= 1"),
        ("meta", "beta_sweep", [-1], "meta.beta_sweep: beta must be finite and >= 0"),
        # beta is one rate per run, so the per-epoch schedule that overrode every swept rate is not read
        ("meta", "phase_betas", [5e-2], "meta.phase_betas: unknown key"),
        # a category is its room's type, so the rule that chose another is not read, whichever it names
        ("episode", "category_mode", "room_type", "episode.category_mode: unknown key"),
    ],
)
def test_pretrain_bad_config_value_usage_error(dataset, tmp_path, capsys, section, key, value, named):
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(dataset)
    cfg[section][key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert named in err and str(cfg_path) in err
    assert not (tmp_path / "o").exists()  # rejected before any training


def test_cross_validate_negative_eval_seed_usage_error(dataset, tmp_path, capsys):
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(dataset)
    cfg["eval"] = {"seed": -1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cross-validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "eval.seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("episodes", 0, "eval.episodes must be >= 1, got 0"),
        ("inner_steps", -1, "eval.inner_steps must be >= 0, got -1"),
        ("beta", -1, "eval.beta must be finite and >= 0, got -1.0"),
        ("beta", float("nan"), "eval.beta must be finite and >= 0, got nan"),
    ],
)
def test_cross_validate_bad_eval_value_usage_error(dataset, tmp_path, capsys, key, value, named):
    # rejected by the reader, before the first area trains
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(dataset)
    del cfg["data"]["areas"]
    cfg["eval"] = {key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cross-validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"run config {cfg_path} {named}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("named", [True, False], ids=["named", "only_area_under_root"])
def test_cross_validate_needs_two_areas(dataset, tmp_path, capsys, named):
    # a table of one area has no cell to fill, so the command stops before it trains
    cfg = json.loads(json.dumps(RUN_CONFIG))  # data.areas names AreaA only
    cfg["data"]["root"] = str(dataset)
    if not named:  # no data.areas, and a data root holding AreaA alone
        cfg["data"]["root"] = str(tmp_path / "data")
        del cfg["data"]["areas"]
        shutil.copytree(dataset / "AreaA", tmp_path / "data" / "AreaA")
        shutil.copy(dataset / "vocab.txt", tmp_path / "data" / "vocab.txt")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cross-validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: run config {cfg_path} data.areas: cross-validate needs at least two areas, got ['AreaA']\n")
    assert not (tmp_path / "o").exists()


# every key the run-config reader reads, each set to a valid value: one training step, one eval episode
FULL_RUN_CONFIG = {
    "data": {"root": "the dataset fixture", "areas": ["AreaA", "AreaB"], "points_per_block": 32},
    "episode": {"ways": 2, "shots": 2, "queries": 1},
    "model": {"mlp1_widths": [8, 8], "mlp2_widths": [8, 16], "seg_head_widths": [8], "use_tnet": False},
    "meta": {"alpha": 1e-3, "beta": 1e-3, "inner_steps": 1, "tasks_per_batch": 1, "gradient_mode": "first_order",
             "epochs": 1, "steps_per_epoch": 1, "beta_sweep": [1e-3]},
    "seeds": {"init": 0, "tasks": 1},
    "eval": {"episodes": 1, "beta": 1e-3, "inner_steps": 1, "seed": 0},
}
# values out of the range that the reader checks, for both commands
OUT_OF_RANGE = {
    "data.points_per_block": [0, -32],
    "episode.ways": [0], "episode.shots": [0, -1], "episode.queries": [0],
    "model.mlp1_widths": [[0], []], "model.mlp2_widths": [[8, -1]], "model.seg_head_widths": [[0]],
    "meta.alpha": [0, -1, float("nan"), float("inf")], "meta.beta": [-1, float("nan")], "meta.inner_steps": [0],
    "meta.tasks_per_batch": [0], "meta.gradient_mode": ["third_order"], "meta.epochs": [-1],
    "meta.steps_per_epoch": [-1], "meta.beta_sweep": [[-1], [1e-3, 1e-3]],
    "seeds.init": [-1], "seeds.tasks": [-1], "eval.seed": [-1], "data.areas": [["Nope"]],
    "eval.episodes": [0], "eval.inner_steps": [-1], "eval.beta": [-1, float("nan")],
}


def retyped(value) -> list:
    """JSON values of another type than ``value`` that a lax reader would take for it: a string number, a bool,
    a whole float, or in place of a list its first item or a list of those."""
    if type(value) is list:
        return [value[0], *([other] * len(value) for other in retyped(value[0]))]
    if type(value) is bool:
        return [int(value), str(value).lower()]
    if type(value) is str:
        return [5, True]
    return [str(value), True] + ([float(value)] if type(value) is int else [])


@st.composite
def config_edits(draw):
    """One edit of ``FULL_RUN_CONFIG``: a key's value retyped or out of range, or a section or key misspelt."""
    section = draw(st.sampled_from(sorted(FULL_RUN_CONFIG)))
    key = draw(st.sampled_from(sorted(FULL_RUN_CONFIG[section])))
    how = draw(st.sampled_from(["retype", "misspell section", "misspell key",
                                *(["range"] if f"{section}.{key}" in OUT_OF_RANGE else [])]))
    if how.startswith("misspell"):
        name = section if how == "misspell section" else key
        return how, section, key, draw(st.sampled_from([name[:-1], name + "s", name.title()]))
    values = retyped(FULL_RUN_CONFIG[section][key]) if how == "retype" else OUT_OF_RANGE[f"{section}.{key}"]
    return how, section, key, draw(st.sampled_from(values))


def edited(cfg: dict, edits) -> dict:
    """A copy of ``cfg`` with ``edits`` applied; misspelling a section or key that an earlier edit renamed does nothing."""
    cfg = json.loads(json.dumps(cfg))
    for how, section, key, value in edits:
        if how == "misspell section" and section in cfg:
            cfg[value] = cfg.pop(section)
        elif how == "misspell key" and key in cfg.get(section, {}):
            cfg[section][value] = cfg[section].pop(key)
        elif not how.startswith("misspell"):
            cfg.setdefault(section, {})[key] = value
    return cfg


@given(st.lists(config_edits(), max_size=2), st.sampled_from(["pretrain", "cross-validate"]))
@settings(max_examples=300, deadline=None)
def test_run_config_contract(dataset, edits, command):
    # a run config with one or two keys edited fails with exit 2, a message naming the file and no traceback,
    # before it trains; the unedited one trains
    event(f"{command}, {len(edits)} edits")
    cfg = edited({**FULL_RUN_CONFIG, "data": {**FULL_RUN_CONFIG["data"], "root": str(dataset)}}, edits)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "run.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        if not edits:
            assert code == 0, err.getvalue()
        else:
            assert code == 2, err.getvalue()
            assert str(cfg_path) in err.getvalue() and "Traceback" not in err.getvalue()
            assert not out.exists()
        if [how for how, *_ in edits] == ["range"]:  # the message names the key at fault as the file spells it
            _, section, key, _ = edits[0]
            assert f"{section}.{key}" in err.getvalue(), err.getvalue()


def test_readme_quick_start_configs_pass_the_strict_readers(tmp_path):
    # the quick start's spec.json and run.json go through the CLI's own readers, so a doc edit cannot ship a
    # config the CLI rejects; nothing is synthesized or trained
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    heredocs = dict(re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", readme, flags=re.M | re.S))
    assert sorted(heredocs) == ["run.json", "spec.json"]
    specs = _area_specs_from_json(json.loads(heredocs["spec.json"]), "README spec.json")
    assert [spec.name for spec in specs] == ["AreaA", "AreaB", "AreaC"]
    run_json = tmp_path / "run.json"
    run_json.write_text(heredocs["run.json"])
    cfg = _parse_run_config(run_json)
    assert (cfg.root, cfg.areas) == ("data", ("AreaA", "AreaB"))


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--spec", "s.json", "--out", "o"],
        ["pretrain", "--config", "c.json", "--out", "o"],
        ["adapt-eval", "--checkpoint", "c", "--data", "d", "--episodes", "1", "--out", "o"],
        ["export-ply", "--checkpoint", "c", "--room", "r.txt", "--vocab", "v.txt", "--out", "o"],
        ["gradcheck"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--seed", "-1"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_pretrain_divergence_exit_code(dataset, tmp_path, capsys):
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(dataset)
    cfg["meta"]["alpha"] = 1e7
    cfg["meta"]["epochs"] = 1
    cfg["meta"]["steps_per_epoch"] = 50
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "boom"
    # no errstate here: pytest turns a RuntimeWarning into an error, so the run shows that pretrain lets numpy
    # warn of nothing, and the exit-3 message is all it prints
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"diverged: step \d+: [^\n]+\n", err), err
    # the initial checkpoint and the partial loss record survive the abort
    assert (out / "ckpt_epoch0").exists()
    assert (out / "loss.csv").exists()


def test_adapt_eval_divergence_exit_code(dataset, pretrained, tmp_path, capsys):
    # no errstate here either: an adaptation that overflows ends in the one exit-3 line, and nothing is scored
    out = tmp_path / "eval"
    argv = ["adapt-eval", "--checkpoint", str(pretrained / "ckpt_epoch2"), "--data", str(dataset), "--shots", "2",
            "--episodes", "2", "--beta", "1e30", "--inner-steps", "3", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"diverged: episode 0: adapted parameters became non-finite at beta 1e\+30\n", err), err
    assert not out.exists()


def test_cross_validate_rejects_category_mode(dataset, tmp_path, capsys):
    # pretrain's rejection is a row of test_pretrain_bad_config_value_usage_error
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"] |= {"root": str(dataset), "areas": ["AreaA", "AreaB"]}
    cfg["episode"]["category_mode"] = "room_type"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cross-validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: run config {cfg_path} episode.category_mode: unknown key\n"
    assert not (tmp_path / "o").exists()


def test_pretrain_beta_sweep(dataset, tmp_path, capsys):
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(dataset)
    cfg["meta"]["epochs"] = 1
    cfg["meta"]["steps_per_epoch"] = 2
    cfg["meta"]["beta_sweep"] = [1e-2, 1e-3, 1e-4]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
    # each run trains at its own rate, and every row of its loss.csv records that rate
    thetas = []
    for beta in ("0.01", "0.001", "0.0001"):
        with open(out / f"beta_{beta}" / "loss.csv") as fh:
            rows = list(csv.reader(fh))
        assert [row[2] for row in rows[1:]] == [repr(float(beta))] * 2
        thetas.append((out / f"beta_{beta}" / "ckpt_epoch1").read_bytes())
    assert len(set(thetas)) == 3
    assert capsys.readouterr().out == "".join(run_line(beta, out / f"beta_{beta}") for beta in ("0.01", "0.001", "0.0001"))


def run_line(beta: str, run_dir: Path) -> str:
    """The line pretrain prints for the run that wrote ``run_dir``."""
    with open(run_dir / "loss.csv") as fh:
        losses = [float(row[1]) for row in list(csv.reader(fh))[1:]]
    return f"beta={beta}: pretrained {len(losses)} steps, final query loss {losses[-1]:.4f}\n"


def test_pretrain_rerun_identical(dataset, tmp_path, pretrained, capsys):
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(dataset)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rerun = tmp_path / "train2"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(rerun)]) == 0
    assert capsys.readouterr().out == run_line("0.001", rerun)  # a single run prints the line a swept one does
    ours = tree_hashes(rerun)
    theirs = tree_hashes(pretrained)
    assert ours == theirs


def test_adapt_eval_and_outputs(dataset, pretrained, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(
        [
            "adapt-eval",
            "--checkpoint", str(pretrained / "ckpt_epoch2"),
            "--data", str(dataset),
            "--areas", "AreaB",
            "--ways", "2", "--shots", "2", "--episodes", "3",
            "--beta", "0.001", "--inner-steps", "2",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "oAcc=" in capsys.readouterr().out
    with open(out / "episodes.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3
    with open(out / "metrics.csv") as fh:
        mrows = list(csv.reader(fh))
    assert mrows[0][0] == "class"
    assert mrows[-1][0] == "overall"
    assert sorted(p.name for p in out.iterdir()) == ["episodes.csv", "manifest.json", "metrics.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dtype"] == "float32" and manifest["runtime"]["numpy"] == np.__version__


def test_adapt_eval_zero_episodes_usage_error(dataset, pretrained, tmp_path, capsys):
    # each setting is checked where it is used, so none falls back or runs silently
    for extra, named in (
        (["--episodes", "0"], "episodes"),
        (["--episodes", "1", "--inner-steps", "-1"], "inner_steps"),
        (["--episodes", "1", "--points-per-block", "0"], "points_per_block"),
        (["--episodes", "1", "--beta", "-1"], "beta"),
        (["--episodes", "1", "--beta", "nan"], "beta"),
        (["--episodes", "1", "--areas", "AreaB,Nope"], "Nope"),
    ):
        args = ["adapt-eval", "--checkpoint", str(pretrained / "ckpt_epoch2"), "--data", str(dataset), *extra]
        assert main([*args, "--out", str(tmp_path / "x")]) == 2, extra
        assert named in capsys.readouterr().err, extra


def test_adapt_eval_capacity_error(dataset, pretrained, tmp_path):
    code = main(
        [
            "adapt-eval",
            "--checkpoint", str(pretrained / "ckpt_epoch2"),
            "--data", str(dataset),
            "--areas", "AreaB",
            "--ways", "6", "--shots", "6", "--episodes", "2",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 4


def edit_header(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` after ``edit`` changed its JSON header in place; ``edit`` may return a count of body bytes to drop."""
    first, rest = blob.split(b"\n", 1)
    length = int(first.split()[2])
    header = json.loads(rest[:length])
    cut = edit(header) or 0
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"PMCKPT v1 %d\n" % len(new) + new + rest[length + cut:]


def five_input_columns(blob: bytes) -> bytes:
    """A self-consistent checkpoint for 5 input columns: the header says so and mlp1.0.w has 5 rows."""

    def edit(header):
        entry = header["params"][0]  # mlp1.0.w comes first in the body
        rows, width = entry["shape"]
        header["config"]["input_dim"], entry["shape"] = 5, [5, width]
        return (rows - 5) * width * 4

    return edit_header(blob, edit)


def config_value(key, value):
    return lambda blob: edit_header(blob, lambda header: header["config"].update({key: value}))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: blob[:40],  # truncated JSON header
        lambda blob: b"\xff" + blob,  # non-ASCII first line
        lambda blob: blob.replace(b"\n", b"x\n", 1),  # non-integer header length
        lambda blob: blob.replace(b'"config"', b'"konfig"', 1),  # missing config
        lambda blob: blob.replace(b'"dtype"', b'"dtipe"', 1),  # missing dtype
        lambda blob: blob.replace(b'"params"', b'"parems"', 1),  # missing params
        lambda blob: blob.replace(b'"shape"', b'"shope"', 1),  # an entry without shape
        lambda blob: blob.replace(b'"mlp1.0.w"', b'"mlp1.9.w"', 1),  # renamed parameter
        lambda blob: blob + b"\0\0\0\0",  # bytes after the last parameter
        lambda blob: blob.replace(b'"float32"', b'"float99"', 1),  # unknown dtype
        five_input_columns,  # not the 9 columns featurize_block gives
        config_value("num_classes", 6.0),  # the checkpoint's own class count, as a float
        config_value("num_classes", 1),
        config_value("points_per_block", 0),
        config_value("points_per_block", True),
        config_value("points_per_block", 32.0),
        config_value("mlp1_widths", [8.0, 8]),
        config_value("use_tnet", 0),
        config_value("input_dim", 9.0),
        lambda blob: edit_header(blob, lambda header: header["params"][0].update(shape=[9.0, 8])),  # mlp1.0.w
    ],
    ids=[
        "prefix40", "non_ascii", "bad_length", "no_config", "no_dtype", "no_params",
        "no_shape", "renamed", "trailing", "bad_dtype", "input_dim_5", "num_classes_float", "num_classes_1",
        "points_per_block_0", "points_per_block_true", "points_per_block_float", "width_float", "use_tnet_0",
        "input_dim_float", "shape_float",
    ],
)
def test_adapt_eval_malformed_checkpoint_usage_error(dataset, pretrained, tmp_path, capsys, corrupt):
    broken = tmp_path / "broken_ckpt"
    broken.write_bytes(corrupt((pretrained / "ckpt_epoch2").read_bytes()))
    code = main(
        [
            "adapt-eval",
            "--checkpoint", str(broken),
            "--data", str(dataset),
            "--episodes", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.count(str(broken)) == 1  # named, and only once


# JSON values to put in a checkpoint header; the test keeps those that differ from the saved value
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.integers(2**31, 2**70), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 70), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=1),
)
HEADER_VALUES = {
    "dtype": st.one_of(st.sampled_from(["float64", "float16", "int32", "<f4", "FLOAT32"]), JUNK),
    "name": st.one_of(st.sampled_from(["mlp1.0.b", "out.w", "tnet.out.w", "mlp1.0.W"]), JUNK),
    "shape": st.one_of(st.lists(st.integers(0, 70), max_size=3), st.lists(st.floats(0, 70), min_size=2, max_size=2), JUNK),
}


@st.composite
def header_edits(draw):
    """A path into a checkpoint header and the value to put there."""
    where = draw(st.sampled_from([
        *(("config", key) for key in ("num_classes", "mlp1_widths", "mlp2_widths", "seg_head_widths", "use_tnet",
                                      "points_per_block", "input_dim")),
        ("dtype",), *(("params", i, field) for i in (0, 1, 9) for field in ("name", "shape")),
    ]))
    return where, draw(HEADER_VALUES.get(where[-1], JUNK))


@given(header_edits(), st.sampled_from(["adapt-eval", "export-ply"]))
@settings(max_examples=300, deadline=None)
def test_checkpoint_header_contract(dataset, pretrained, edit, command):
    # a checkpoint whose header holds one value other than the one its parameters were saved with fails
    # with an exit code, a message that names the file and no traceback
    (*parents, key), value = edit

    def put(header):
        for step in parents:
            header = header[step]
        assume(json.dumps(header[key]) != json.dumps(value))
        # any other whole number of points per block is a valid checkpoint
        assume(not (key == "points_per_block" and type(value) is int and value >= 1))
        header[key] = value

    blob = edit_header((pretrained / "ckpt_epoch2").read_bytes(), put)
    event(".".join(map(str, edit[0])))
    room = next((dataset / "AreaB").glob("office_*.txt"))
    argv = {
        "adapt-eval": ["--data", str(dataset), "--episodes", "1"],
        "export-ply": ["--room", str(room), "--vocab", str(dataset / "vocab.txt")],
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        broken = Path(tmp) / "ckpt"
        broken.write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--checkpoint", str(broken), *argv, "--out", str(Path(tmp) / "out")])
        event(f"exit {code}")
        assert code in (2, 4, 5), err.getvalue()
        assert str(broken) in err.getvalue() and "Traceback" not in err.getvalue()


def test_export_ply(dataset, pretrained, tmp_path):
    room = next((dataset / "AreaB").glob("office_*.txt"))
    out = tmp_path / "ply"
    code = main(
        [
            "export-ply",
            "--checkpoint", str(pretrained / "ckpt_epoch2"),
            "--room", str(room),
            "--vocab", str(dataset / "vocab.txt"),
            "--out", str(out),
        ]
    )
    assert code == 0
    preds = sorted(out.glob("*_pred.ply"))
    truths = sorted(out.glob("*_truth.ply"))
    assert len(preds) == len(truths) >= 1
    per_block = 32  # checkpoint's points_per_block
    for ply in preds + truths:
        header = ply.read_text().splitlines()
        vertex = next(l for l in header if l.startswith("element vertex"))
        assert int(vertex.split()[-1]) == per_block


def test_export_ply_manifest_fingerprints_its_inputs(dataset, pretrained, tmp_path):
    # the second palette adds a color for a class the checkpoint lacks: the same PLY files, another input
    room = next((dataset / "AreaB").glob("office_*.txt"))
    palette = tmp_path / "palette.json"
    manifests = []
    for extra in ({}, {"99": [1, 2, 3]}):
        palette.write_text(json.dumps({str(i): list(rgb) for i, rgb in DEFAULT_PALETTE.items()} | extra))
        out = tmp_path / f"ply{len(manifests)}"
        assert main(["export-ply", "--checkpoint", str(pretrained / "ckpt_epoch2"), "--room", str(room),
                     "--vocab", str(dataset / "vocab.txt"), "--palette", str(palette), "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert tree_hashes(tmp_path / "ply0") == tree_hashes(tmp_path / "ply1")
    assert manifests[0]["inputs"] != manifests[1]["inputs"]
    inputs = [str(pretrained / "ckpt_epoch2"), str(room), str(dataset / "vocab.txt"), str(palette)]
    assert sorted(manifests[1]["inputs"]) == sorted(inputs)
    assert manifests[1]["inputs"][str(palette)] == hashlib.sha256(palette.read_bytes()).hexdigest()


def test_export_ply_palette_missing_class(dataset, pretrained, tmp_path):
    room = next((dataset / "AreaB").glob("office_*.txt"))
    palette = tmp_path / "palette.json"
    palette.write_text(json.dumps({"0": [255, 0, 0]}))
    code = main(
        [
            "export-ply",
            "--checkpoint", str(pretrained / "ckpt_epoch2"),
            "--room", str(room),
            "--vocab", str(dataset / "vocab.txt"),
            "--palette", str(palette),
            "--out", str(tmp_path / "ply2"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "key, color",
    [("a", [1, 2, 3]), ("1", [1, 2]), ("2", [300, 0, 0])],
    ids=["non_integer_key", "two_channels", "out_of_range"],
)
def test_export_ply_bad_palette_usage_error(dataset, pretrained, tmp_path, capsys, key, color):
    room = next((dataset / "AreaB").glob("office_*.txt"))
    palette = tmp_path / "palette.json"
    palette.write_text(json.dumps({**{str(i): [10, 20, 30] for i in range(6)}, key: color}))
    code = main(
        [
            "export-ply",
            "--checkpoint", str(pretrained / "ckpt_epoch2"),
            "--room", str(room),
            "--vocab", str(dataset / "vocab.txt"),
            "--palette", str(palette),
            "--out", str(tmp_path / "ply"),
        ]
    )
    assert code == 2
    assert f"{palette} {key}:" in capsys.readouterr().err
    assert not (tmp_path / "ply").exists()


def test_cross_validate_table(dataset, tmp_path, capsys):
    cfg = json.loads(json.dumps(RUN_CONFIG))
    cfg["data"]["root"] = str(dataset)
    del cfg["data"]["areas"]
    cfg["meta"]["epochs"] = 1
    cfg["meta"]["steps_per_epoch"] = 2
    cfg["eval"] = {"episodes": 2, "beta": 1e-3, "inner_steps": 1, "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "cv"
    assert main(["cross-validate", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out / "crossval.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["test_area", "AreaA", "AreaB"]
    table = {r[0]: r[1:] for r in rows[1:]}
    assert table["AreaA"][0] == ""  # empty diagonal
    assert table["AreaB"][1] == ""
    assert float(table["AreaB"][0]) > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"][str(cfg_path)] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    assert manifest_inputs(out) == sorted([str(cfg_path), *dataset_inputs(dataset, "AreaA", "AreaB")])
    assert manifest["dtype"] == "float32"  # it trains and adapts

    # with data.areas the folds run over the areas it names (a malformed AreaC is never read), once per swept beta
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    shutil.copytree(copy / "AreaA", copy / "AreaC")
    (copy / "AreaC" / "office_1.txt").write_text("1 2 3 x y z 0\n")
    cfg["data"] |= {"root": str(copy), "areas": ["AreaA", "AreaB"]}
    cfg["meta"]["beta_sweep"] = [1e-2, 1e-4]
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "cv_sweep"
    capsys.readouterr()
    assert main(["cross-validate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["beta_0.0001", "beta_0.01", "manifest.json"]
    printed = capsys.readouterr().out.splitlines()
    for beta in ("0.01", "0.0001"):
        with open(out / f"beta_{beta}" / "crossval.csv") as fh:
            assert next(csv.reader(fh)) == ["test_area", "AreaA", "AreaB"]
        for source in ("AreaA", "AreaB"):
            with open(out / f"beta_{beta}" / f"pretrain_{source}" / "loss.csv") as fh:
                assert {row[2] for row in list(csv.reader(fh))[1:]} == {repr(float(beta))}
        assert [line.split(": oAcc")[0] for line in printed if line.startswith(f"beta={beta}: ")] == [
            f"beta={beta}: pretrain AreaA -> test AreaB", f"beta={beta}: pretrain AreaB -> test AreaA"]
    assert manifest_inputs(out) == sorted([str(cfg_path), *dataset_inputs(copy, "AreaA", "AreaB")])


def test_gradcheck_passes_and_negative_control(capsys, monkeypatch):
    assert main(["gradcheck", "--bits", "64"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["gradcheck", "--bits", "32"]) == 0

    # negative control: the first coordinate the battery compares reads a deliberately wrong tape gradient
    calls = []

    def first_wrong(grad):
        calls.append(grad)
        return grad_array(grad) * 1.5 + 1.0 if len(calls) == 1 else grad_array(grad)

    monkeypatch.setattr(cli, "grad_array", first_wrong)
    assert main(["gradcheck", "--bits", "64"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_manifest_contents(pretrained):
    manifest = json.loads((pretrained / "manifest.json").read_text())
    assert manifest["tool"] == "pointmeta"
    assert manifest["command"] == "pretrain"
    assert "config_hash" in manifest and manifest["outputs"]
    assert any(k.endswith("loss.csv") for k in manifest["outputs"])
    # what the bits depend on besides the inputs
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = manifest["runtime"]
    assert runtime["numpy"] == np.__version__
    assert runtime["blas"]["name"] == blas["name"] and runtime["blas"]["version"] == blas["version"]
    assert runtime["threads"] == {var: os.environ.get(var)
                                  for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    assert manifest["dtype"] == "float32"
