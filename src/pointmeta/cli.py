"""Command-line surface: reproducible synthesis, training, and evaluation runs.

Exit codes: 0 success, 2 usage/config problems, 3 training divergence,
4 dataset capacity errors, 5 I/O failures.  Every command that writes
outputs also writes a ``manifest.json`` recording the tool version, seeds,
config hash, SHA-256 fingerprints of its outputs and of each input path it
read (a directory file by file), the numpy version, the BLAS build and
its thread settings, and for a command that trains or adapts the parameter
dtype; reruns with an identical manifest produce bit-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, data
from .autodiff import Tape, backward, cross_entropy, finite_diff_gradient, grad_array
from .data import (
    DEFAULT_CLASSES,
    DEFAULT_PALETTE,
    Area,
    SyntheticAreaSpec,
    count_blocks,
    csv_text,
    find_areas,
    load_area,
    load_room,
    load_vocab,
    partition_blocks,
    featurize_block,
    read_rooms,
    read_text,
    resample_block,
    export_ply,
    synthetic_rooms,
    write_file,
    write_rooms,
    write_vocab,
)
from .errors import CapacityError, ConfigError, DivergenceError, ValidationError
from .metrics import metrics_report
from .model import PointNetConfig, forward, init_params, load_checkpoint, predict_labels, save_checkpoint
from .sampler import EpisodeSpec, build_task_distribution, index_categories
from .trainer import MetaConfig, adapt_and_eval, check_eval, pretrain

# synth builds its areas room by room through synthetic_rooms; the whole-area generator stays an attribute of cli
# because perfbench's traced run wraps cli.generate_synthetic_area
generate_synthetic_area = data.generate_synthetic_area


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _fingerprint_tree(root) -> dict[str, str]:
    return {str(p.relative_to(root)): _sha256_file(p) for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _runtime() -> dict:
    """What the output bits depend on besides the inputs: numpy, its BLAS build and the BLAS threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_manifest(out_dir: Path, command: str, config_obj, seeds: dict, inputs, dtype=None) -> None:
    """Fingerprint ``inputs`` and everything in ``out_dir``, and record the run parameters and runtime.

    ``inputs`` are the paths the command read, as given: a file is keyed by its path, a
    directory by the path of each file under it.  ``dtype`` is the parameter precision of a
    command that trains or adapts.
    """
    blob = json.dumps(config_obj, sort_keys=True).encode("utf-8")
    fingerprints = {}
    for path in inputs:
        if Path(path).is_dir():
            fingerprints |= {f"{path}/{rel}": digest for rel, digest in _fingerprint_tree(path).items()}
        else:
            fingerprints[str(path)] = _sha256_file(path)
    outputs = {rel: digest for rel, digest in _fingerprint_tree(out_dir).items() if Path(rel).name != "manifest.json"}
    manifest = {
        "tool": "pointmeta",
        "version": __version__,
        "command": command,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seeds": seeds,
        "inputs": fingerprints,
        "outputs": outputs,
        "runtime": _runtime(),
    }
    if dtype is not None:
        manifest["dtype"] = str(np.dtype(dtype))
    write_file(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_json(path) -> dict:
    """The JSON object in the file at ``path``; a synth spec, a run config and a palette are each one."""
    try:
        loaded = json.loads(read_text(path))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: expected a JSON object, got a {type(loaded).__name__}")
    return loaded


# ---------------------------------------------------------------------------
# synth


def _area_specs_from_json(spec: dict, source: str) -> list[SyntheticAreaSpec]:
    _reject_unread(spec, {"areas", "density", "color_noise", "room_tint", "classes"}, source)
    areas = _field(spec, "areas", _list_of(_exactly(dict)), source=source)
    if not areas:
        raise ConfigError(f"{source}: needs a non-empty 'areas' list")
    shared = dict(
        density=_field(spec, "density", number, 110.0, source=source),
        color_noise=_field(spec, "color_noise", number, 6.0, source=source),
        room_tint=_field(spec, "room_tint", number, 14.0, source=source),
        classes=_field(spec, "classes", _list_of(_exactly(str)), DEFAULT_CLASSES, source=source),
    )
    names = [_field(entry, "name", _exactly(str), source=source) for entry in areas]
    if len(set(names)) < len(names):
        raise ConfigError(f"{source} areas: names must be distinct, got {names}")
    if {"vocab.txt", "manifest.json"} & set(names):  # the files synth writes next to the area directories
        raise ConfigError(f"{source} areas: vocab.txt and manifest.json name synth's own outputs, got {names}")
    out = []
    for name, entry in zip(names, areas):
        _reject_unread(entry, {"name", "rooms"}, source)
        rooms = _field(entry, "rooms", _exactly(dict), source=source)
        counts = tuple((t, _field(entry, f"rooms.{t}", integer, source=source)) for t in rooms)
        out.append(_checked(f"{source} ", SyntheticAreaSpec, name=name, rooms=counts, **shared))
    return out


def cmd_synth(args) -> int:
    spec = _load_json(args.spec)
    area_specs = _area_specs_from_json(spec, f"synth spec {args.spec}")
    out = Path(args.out)
    write_vocab(area_specs[0].classes, out / "vocab.txt")
    for i, area_spec in enumerate(area_specs):  # a room is generated, written, counted and dropped before the next
        area_seed = int(np.random.SeedSequence([args.seed, i]).generate_state(1)[0])
        _print_area(area_spec.name, write_rooms(synthetic_rooms(area_spec, seed=area_seed), out / area_spec.name))
    write_manifest(out, "synth", spec, {"seed": args.seed}, [args.spec])
    return 0


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    directories, vocab = find_areas(args.data)
    print(f"vocabulary: {len(vocab)} classes ({', '.join(vocab)})")
    for directory in directories:  # a room is read, counted and dropped before the next is read
        _print_area(directory.name, read_rooms(directory, vocab), with_types=True)
    return 0


def _room_totals(room) -> tuple[int, int, str]:
    return len(room), count_blocks(room), room.room_type


def _print_area(name: str, rooms, with_types: bool = False) -> None:
    """Print the totals line of the area ``name``, counting its ``rooms`` as they come.

    ``map`` holds no room while the next is made, so one room is alive at a time.
    """
    points, blocks, types = zip(*map(_room_totals, rooms))
    types = f", types: {', '.join(sorted(set(types)))}" if with_types else ""
    print(f"{name}: {len(points)} rooms, {sum(points)} points, {sum(blocks)} blocks{types}")


# ---------------------------------------------------------------------------
# pretrain


def _field(cfg: dict, path: str, kind, default=None, *, source: str):
    """Read ``path``, a key or ``section.key``, from a JSON object and cast it with ``kind``.

    The key after the first dot is read whole, so a synth spec's room type may hold a dot.
    A missing or null key takes ``default``; without a default it is required.
    ``source`` names the file in error messages.
    """
    *sections, key = path.split(".", 1)
    block = cfg
    for section in sections:
        block = block.get(section, {})
        if not isinstance(block, dict):
            raise ConfigError(f"{source} {section}: expected an object, got {block!r}")
    value = block.get(key)
    if value is None:
        if default is None:
            raise ConfigError(f"{source} missing key {path}")
        value = default
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source} {path}: cannot read {value!r} as {kind.__name__}") from exc


def _list_of(kind):
    def cast(value):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(kind(v) for v in value)

    cast.__name__ = f"a list of {kind.__name__}"
    return cast


def _exactly(kind):
    # bool("no") is True, str(5) is "5" and int(6.0) is 6, so a JSON value is taken only as its own type
    def cast(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value

    cast.__name__ = kind.__name__
    return cast


integer = _exactly(int)


def number(value) -> float:  # a JSON integer or float; float() would also read "1e-3" and true
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _rgb(value) -> tuple[int, int, int]:
    if not (isinstance(value, list) and len(value) == 3 and all(type(c) is int and 0 <= c <= 255 for c in value)):
        raise ValueError(f"expected three integers in 0..255, got {value!r}")
    return tuple(value)


_rgb.__name__ = "three integers in 0..255"


def non_negative_int(value) -> int:  # the type of every seed: numpy rejects negative ones
    if integer(value) < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _reject_unread(cfg: dict, read, source: str) -> None:
    """Name as ``<source> <key>: unknown key`` each key of ``cfg`` not in ``read``; a ``section.key`` there is one of a section's."""
    sections = {key.partition(".")[0] for key in read if "." in key}
    keys = [*cfg, *(f"{section}.{key}" for section in cfg if section in sections for key in cfg[section])]
    unknown = [key for key in keys if key not in read and key not in sections]
    if unknown:
        raise ConfigError(f"{source} {', '.join(unknown)}: unknown key")


def _checked(prefix: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with ``prefix`` put before the message of a ``ConfigError`` it raises."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


# what _parse_run_config read; ``loaded`` is the file's JSON object, which the manifest hashes
RunConfig = namedtuple("RunConfig", "loaded root areas spec meta sweep model seeds eval_episodes eval_beta eval_steps eval_seed")


def _parse_run_config(path) -> RunConfig:
    """Every key of the run config at ``path`` that pretrain or cross-validate uses, each read as its own JSON type."""
    cfg, source = _load_json(path), f"run config {path}"
    read = set()  # the dotted keys read

    def field(key: str, kind, default=None):
        read.add(key)
        return _field(cfg, key, kind, default, source=source)

    # a config dataclass's message begins with the field it rejects, so "<section>." before it names the key
    spec = _checked(
        f"{source} episode.", EpisodeSpec,
        ways=field("episode.ways", integer, 2),
        shots=field("episode.shots", integer, 6),
        query_multiplier=field("episode.queries", integer, 1),
    )
    meta = _checked(
        f"{source} meta.", MetaConfig,
        alpha=field("meta.alpha", number, 1e-3),
        beta=field("meta.beta", number, 1e-3),
        inner_steps=field("meta.inner_steps", integer, 1),
        tasks_per_batch=field("meta.tasks_per_batch", integer, 1),
        gradient_mode=field("meta.gradient_mode", _exactly(str), "first_order"),
        epochs=field("meta.epochs", integer, 1),
        steps_per_epoch=field("meta.steps_per_epoch", integer, 0),
    )
    # every swept beta is range-checked, and given a directory of its own, before the first run trains
    rates = field("meta.beta_sweep", _list_of(number), ())
    sweep = tuple(_checked(f"{source} meta.beta_sweep: ", replace, meta, beta=beta) for beta in rates)
    if len({f"{beta:g}" for beta in rates}) < len(rates):
        raise ConfigError(f"{source} meta.beta_sweep: two of {list(rates)} write one output directory")
    model = _checked(
        f"{source} model.", PointNetConfig,
        num_classes=2,  # a stand-in: the dataset's vocabulary sets the class count
        mlp1_widths=field("model.mlp1_widths", _list_of(integer), (64, 64)),
        mlp2_widths=field("model.mlp2_widths", _list_of(integer), (64, 128, 256)),
        seg_head_widths=field("model.seg_head_widths", _list_of(integer), (128, 64)),
        use_tnet=field("model.use_tnet", _exactly(bool), False),
    )
    model = _checked(f"{source} data.", replace, model, points_per_block=field("data.points_per_block", integer, 1024))
    root = field("data.root", _exactly(str))
    areas = field("data.areas", _list_of(_exactly(str)), ())
    seeds = {key: field(f"seeds.{key}", non_negative_int, 0) for key in ("init", "tasks")}
    eval_episodes = field("eval.episodes", integer, 20)
    eval_beta = field("eval.beta", number, meta.beta)
    eval_steps = field("eval.inner_steps", integer, meta.inner_steps)
    # checked here too, so cross-validate stops before its first area trains
    _checked(f"{source} eval.", check_eval, eval_episodes, eval_steps, eval_beta)
    eval_seed = field("eval.seed", non_negative_int, 0)
    _reject_unread(cfg, read, source)
    return RunConfig(cfg, root, areas, spec, meta, sweep, model, seeds, eval_episodes, eval_beta, eval_steps, eval_seed)


def _dataset_inputs(root, areas) -> list[str]:
    """The paths under the data ``root`` that reading ``areas`` read: the vocabulary and each area's directory.

    An ``Area`` and an area's directory path both name the area by ``.name``.
    """
    return [f"{root}/vocab.txt", *(f"{root}/{area.name}" for area in areas)]


def _room_by_room(directories, vocab):
    """Each room of the area ``directories`` as a one-room ``Area``, read only when the consumer asks for it.

    An index built from it drops each room once it is partitioned, so it never holds the dataset.
    """
    for directory in directories:
        for room in read_rooms(directory, vocab):
            yield Area(directory.name, [room], vocab)


def _runs(cfg: RunConfig, out: Path) -> list[tuple[MetaConfig, Path]]:
    """The meta config and output directory of each run: one per swept beta under ``beta_<b>/``, else one in ``out``."""
    return [(swept, out / f"beta_{swept.beta:g}") for swept in cfg.sweep] or [(cfg.meta, out)]


def write_loss_csv(history, meta: MetaConfig, path) -> None:
    """One row per step of ``history``; beta and alpha are the run's, the same on every row."""
    rates = [repr(float(meta.beta)), repr(float(meta.alpha))]
    rows = [[step, repr(float(loss)), *rates] for step, loss in history]
    write_file(path, csv_text([["step", "query_loss", "beta", "alpha"], *rows]))


def _run_pretrain(cfg: RunConfig, meta: MetaConfig, seeds: dict, index, model: PointNetConfig, out: Path):
    dist = build_task_distribution(index, cfg.spec, count=meta.episodes, seed=seeds["tasks"])

    def hook(epoch, state):
        save_checkpoint(out / f"ckpt_epoch{epoch}", model, state.theta)

    try:  # meta_step turns a non-finite loss or gradient into a DivergenceError, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            state = pretrain(dist, meta, model, init_seed=seeds["init"], checkpoint_hook=hook)
    except DivergenceError as exc:
        write_loss_csv(exc.last_state.history, meta, out / "loss.csv")
        raise
    write_loss_csv(state.history, meta, out / "loss.csv")
    return state


def cmd_pretrain(args) -> int:
    cfg = _parse_run_config(args.config)
    seeds = cfg.seeds if args.seed is None else {**cfg.seeds, "init": args.seed}
    directories, vocab = _checked(f"run config {args.config} data.areas: ", find_areas, cfg.root, cfg.areas)
    # once, for every swept beta
    index = index_categories(_room_by_room(directories, vocab), points_per_block=cfg.model.points_per_block)
    model = replace(cfg.model, num_classes=len(vocab))
    out = Path(args.out)
    for run_meta, run_out in _runs(cfg, out):
        state = _run_pretrain(cfg, run_meta, seeds, index, model, run_out)
        final = f"{state.losses[-1]:.4f}" if state.losses else "n/a"
        print(f"beta={run_meta.beta:g}: pretrained {len(state.history)} steps, final query loss {final}")
    inputs = [args.config, *_dataset_inputs(cfg.root, directories)]
    write_manifest(out, "pretrain", cfg.loaded, seeds, inputs, dtype=state.theta.dtype)
    return 0


# ---------------------------------------------------------------------------
# adapt-eval


def _check_classes(model: PointNetConfig, vocab, path) -> None:
    if len(vocab) != model.num_classes:
        raise ConfigError(f"{path}: vocabulary size {len(vocab)} != checkpoint classes {model.num_classes}")


def cmd_adapt_eval(args) -> int:
    model, theta = load_checkpoint(args.checkpoint)
    if args.points_per_block is not None:  # else the checkpoint's
        model = replace(model, points_per_block=args.points_per_block)
    directories, vocab = find_areas(args.data, args.areas.split(",") if args.areas else ())
    _check_classes(model, vocab, Path(args.data) / "vocab.txt")
    spec = EpisodeSpec(ways=args.ways, shots=args.shots, query_multiplier=args.queries)
    report = adapt_and_eval(
        theta,
        model,
        _room_by_room(directories, vocab),
        spec,
        episodes=args.episodes,
        rng=np.random.default_rng(args.seed),
        beta=args.beta,
        inner_steps=args.inner_steps,
    )
    out = Path(args.out)
    write_file(out / "metrics.csv", csv_text(metrics_report(report.counts, report.overall, vocab)))
    rows = [[i, repr(m.oacc), repr(m.macc), repr(m.miou)] for i, m in enumerate(report.per_episode)]
    write_file(out / "episodes.csv", csv_text([["episode", "oacc", "macc", "miou"], *rows]))
    summary = (
        f"episodes={args.episodes} oAcc={report.overall.oacc:.4f} "
        f"mAcc={report.overall.macc:.4f} mIoU={report.overall.miou:.4f} "
        f"(episode means: {report.mean_oacc:.4f}/{report.mean_macc:.4f}/{report.mean_miou:.4f})"
    )
    print(summary)
    settings = {key: vars(args)[key] for key in ("ways", "shots", "queries", "episodes", "beta", "inner_steps", "points_per_block")}
    inputs = [args.checkpoint, *_dataset_inputs(args.data, directories)]
    write_manifest(out, "adapt-eval", settings, {"seed": args.seed}, inputs, dtype=theta.dtype)
    return 0


# ---------------------------------------------------------------------------
# cross-validate


def cmd_cross_validate(args) -> int:
    cfg = _parse_run_config(args.config)
    directories, vocab = _checked(f"run config {args.config} data.areas: ", find_areas, cfg.root, cfg.areas)
    names = [d.name for d in directories]
    if len(names) < 2:  # a table of one area has no cell to fill, so nothing is trained
        raise ConfigError(f"run config {args.config} data.areas: cross-validate needs at least two areas, got {names}")
    # every area is both a source and a target, so all are read up front
    areas = [load_area(directory, vocab) for directory in directories]
    model = replace(cfg.model, num_classes=len(vocab))
    out = Path(args.out)

    for run_meta, run_out in _runs(cfg, out):
        swept = f"beta={run_meta.beta:g}: " if cfg.sweep else ""
        table = {test: {src: "" for src in names} for test in names}
        for source in areas:
            index = index_categories([source], points_per_block=cfg.model.points_per_block)
            state = _run_pretrain(cfg, run_meta, cfg.seeds, index, model, run_out / f"pretrain_{source.name}")
            for target in areas:
                if target.name == source.name:
                    continue
                report = adapt_and_eval(
                    state.theta, model, [target], cfg.spec, episodes=cfg.eval_episodes,
                    rng=np.random.default_rng([cfg.eval_seed, names.index(source.name), names.index(target.name)]),
                    beta=cfg.eval_beta, inner_steps=cfg.eval_steps,
                )
                table[target.name][source.name] = repr(report.overall.oacc)
                print(f"{swept}pretrain {source.name} -> test {target.name}: oAcc {report.overall.oacc:.4f}")
        rows = [[test] + [table[test][src] for src in names] for test in names]
        write_file(run_out / "crossval.csv", csv_text([["test_area"] + names, *rows]))
    inputs = [args.config, *_dataset_inputs(cfg.root, areas)]
    write_manifest(out, "cross-validate", cfg.loaded, cfg.seeds | {"eval": cfg.eval_seed}, inputs, dtype=state.theta.dtype)
    return 0


# ---------------------------------------------------------------------------
# export-ply


def _load_palette(path) -> dict[int, tuple[int, int, int]]:
    loaded, source = _load_json(path), f"palette {path}"
    palette = {}
    for key in loaded:
        if not (key.isascii() and key.isdecimal()):
            raise ConfigError(f"{source} {key}: class ids must be ASCII integers")
        if int(key) in palette:
            raise ConfigError(f"{source} {key}: class id {int(key)} is repeated")
        palette[int(key)] = _field(loaded, key, _rgb, source=source)
    return palette


def cmd_export_ply(args) -> int:
    model, theta = load_checkpoint(args.checkpoint)
    vocab = load_vocab(args.vocab)
    _check_classes(model, vocab, args.vocab)
    room = load_room(args.room, vocab)
    palette = _load_palette(args.palette) if args.palette else dict(DEFAULT_PALETTE)
    missing = [i for i in range(model.num_classes) if i not in palette]
    if missing:
        raise ConfigError(f"palette {args.palette or '(default)'}: missing colors for classes {missing}")
    out = Path(args.out)
    written = 0
    for k, block in enumerate(partition_blocks(room)):
        resampled = resample_block(block, model.points_per_block, np.random.default_rng([args.seed, k]))
        features = featurize_block(resampled)
        labels = predict_labels(forward(model, theta, features))
        stem = f"{room.name}_block_{block.grid[0]}_{block.grid[1]}"
        export_ply(resampled, labels, palette, out / f"{stem}_pred.ply")
        export_ply(resampled, resampled.labels, palette, out / f"{stem}_truth.ply")
        written += 2
    print(f"wrote {written} PLY files to {out}")
    inputs = [args.checkpoint, args.room, args.vocab] + ([args.palette] if args.palette else [])
    write_manifest(out, "export-ply", {"palette": args.palette or "default"}, {"seed": args.seed}, inputs)
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_battery(bits: int, seed: int) -> tuple[str, float, float]:
    dtype = np.float32 if bits == 32 else np.float64
    tol = 1e-4 if bits == 32 else 1e-7
    rng = np.random.default_rng(seed)
    # 48 points against an mlp2 width of 32: the pool records only the rows that hold a maximum
    model = PointNetConfig(
        num_classes=3, mlp1_widths=(8, 8), mlp2_widths=(8, 16, 32), seg_head_widths=(16, 8), points_per_block=48
    )
    params = init_params(model, seed=seed, dtype=dtype)
    block = rng.normal(size=(48, 9)).astype(dtype)
    labels = rng.integers(0, 3, size=48)

    def loss_of(store):
        with Tape():
            return cross_entropy(forward(model, store.tensors(), block), labels).item()

    fd = finite_diff_gradient(loss_of, params.astype(np.float64), eps=1e-5)
    with Tape() as tape:
        tt = params.tensors()
        grads = backward(cross_entropy(forward(model, tt, block), labels), tape, tt)

    names = sorted(params.keys())
    coords = rng.integers(0, 10**9, size=100)
    worst = 0.0
    for raw in coords:
        name = names[int(raw) % len(names)]
        flat = int(raw) % params[name].size
        ad = float(grad_array(grads[name]).ravel()[flat])
        ref = float(fd[name].ravel()[flat])
        rel = abs(ad - ref) / max(abs(ad), abs(ref), 1e-3)
        worst = max(worst, rel)
    return f"pointnet cross-entropy ({bits}-bit, 100 coords)", worst, tol


def cmd_gradcheck(args) -> int:
    name, worst, tol = _gradcheck_battery(args.bits, args.seed)
    print(f"{'PASS' if worst <= tol else 'FAIL'} {name}: worst rel-err {worst:.3g} (tolerance {tol:g})")
    return 0 if worst <= tol else 1


# ---------------------------------------------------------------------------
# entry point


def seed_flag(text: str) -> int:  # argparse hands a flag over as its string; a config's seed is a JSON integer
    return non_negative_int(int(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pointmeta", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pointmeta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--spec", required=True, help="synthetic dataset spec (JSON)")
    p.add_argument("--seed", type=seed_flag, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="load and validate a dataset, print stats")
    p.add_argument("--data", required=True, help="dataset root (areas + vocab.txt)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pretrain", help="meta-train an initialization")
    p.add_argument("--config", required=True, help="run configuration (JSON)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=seed_flag, default=None, help="override the init seed")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("adapt-eval", help="adapt a checkpoint on target episodes and score")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--areas", default=None, help="comma-separated area names (default: all)")
    p.add_argument("--ways", type=int, default=2)
    p.add_argument("--shots", type=int, default=6)
    p.add_argument("--queries", type=int, default=1, help="query multiplier t")
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--beta", type=float, default=1e-3)
    p.add_argument("--inner-steps", type=int, default=1)
    p.add_argument("--points-per-block", type=int, default=None)
    p.add_argument("--seed", type=seed_flag, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adapt_eval)

    p = sub.add_parser("cross-validate", help="pretrain on each area, evaluate on the others")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cross_validate)

    p = sub.add_parser("export-ply", help="write predicted and ground-truth PLY files per block")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--room", required=True, help="canonical room file")
    p.add_argument("--vocab", required=True)
    p.add_argument("--palette", default=None, help="JSON class-id -> [r, g, b]")
    p.add_argument("--seed", type=seed_flag, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ply)

    p = sub.add_parser("gradcheck", help="check reverse-mode gradients against finite differences")
    p.add_argument("--bits", type=int, choices=(32, 64), default=64)
    p.add_argument("--seed", type=seed_flag, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
