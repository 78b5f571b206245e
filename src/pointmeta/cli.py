"""Command-line surface: reproducible synthesis, training, and evaluation runs.

Exit codes: 0 success, 2 usage/config problems, 3 training divergence,
4 dataset capacity errors, 5 I/O failures.  Every command that writes
outputs also writes a ``manifest.json`` recording the tool version, seeds,
config hash, SHA-256 fingerprints of its outputs and of each input path it
was given (a directory file by file), the numpy version, the BLAS build and
its thread settings, and for a command that trains or adapts the parameter
dtype; reruns with an identical manifest produce bit-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import Tape, backward, cross_entropy, finite_diff_gradient, grad_array
from .data import (
    DEFAULT_CLASSES,
    DEFAULT_PALETTE,
    SyntheticAreaSpec,
    count_blocks,
    csv_text,
    generate_synthetic_area,
    load_dataset,
    load_room,
    load_vocab,
    partition_blocks,
    featurize_block,
    read_text,
    resample_block,
    export_ply,
    write_dataset,
    write_file,
)
from .errors import CapacityError, ConfigError, DivergenceError, ValidationError
from .metrics import metrics_report
from .model import INPUT_DIM, PointNetConfig, forward, init_params, load_checkpoint, predict_labels, save_checkpoint
from .sampler import EpisodeSpec, build_task_distribution, index_categories
from .trainer import MetaConfig, adapt_and_eval, pretrain


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

    ``inputs`` are the paths the command was given, as given: a file is keyed by its path, a
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


def _load_json(path):
    try:
        return json.loads(read_text(path))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# synth


def _area_specs_from_json(spec, source: str) -> list[SyntheticAreaSpec]:
    if not isinstance(spec, dict):
        raise ConfigError(f"{source}: expected a JSON object")
    areas = _field(spec, "areas", _list_of(_exactly(dict)), source=source)
    if not areas:
        raise ConfigError(f"{source}: needs a non-empty 'areas' list")
    shared = dict(
        density=_field(spec, "density", number, 110.0, source),
        color_noise=_field(spec, "color_noise", number, 6.0, source),
        room_tint=_field(spec, "room_tint", number, 14.0, source),
        classes=_field(spec, "classes", _list_of(_exactly(str)), DEFAULT_CLASSES, source),
    )
    names = [_field(entry, "name", _exactly(str), source=source) for entry in areas]
    if len(set(names)) < len(names):
        raise ConfigError(f"{source} areas: names must be distinct, got {names}")
    if {"vocab.txt", "manifest.json"} & set(names):  # the files synth writes next to the area directories
        raise ConfigError(f"{source} areas: vocab.txt and manifest.json name synth's own outputs, got {names}")
    out = []
    for name, entry in zip(names, areas):
        rooms = _field(entry, "rooms", _exactly(dict), source=source)
        counts = tuple((t, _field(entry, f"rooms.{t}", integer, source=source)) for t in rooms)
        try:
            out.append(SyntheticAreaSpec(name=name, rooms=counts, **shared))
        except ConfigError as exc:
            raise ConfigError(f"{source} {exc}") from exc
    return out


def cmd_synth(args) -> int:
    spec = _load_json(args.spec)
    area_specs = _area_specs_from_json(spec, f"synth spec {args.spec}")
    out = Path(args.out)
    areas = []
    for i, area_spec in enumerate(area_specs):
        area_seed = int(np.random.SeedSequence([args.seed, i]).generate_state(1)[0])
        areas.append(generate_synthetic_area(area_spec, seed=area_seed))
    write_dataset(areas, area_specs[0].classes, out)
    _print_areas(areas)
    write_manifest(out, "synth", spec, {"seed": args.seed}, [args.spec])
    return 0


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    areas, vocab = load_dataset(args.data)
    print(f"vocabulary: {len(vocab)} classes ({', '.join(vocab)})")
    _print_areas(areas, with_types=True)
    return 0


def _print_areas(areas, with_types: bool = False) -> None:
    for area in areas:
        n_blocks = sum(count_blocks(room) for room in area.rooms)
        n_points = sum(len(room) for room in area.rooms)
        types = f", types: {', '.join(sorted({room.room_type for room in area.rooms}))}" if with_types else ""
        print(f"{area.name}: {len(area.rooms)} rooms, {n_points} points, {n_blocks} blocks{types}")


# ---------------------------------------------------------------------------
# pretrain


def _field(cfg: dict, path: str, kind, default=None, source: str = "run config"):
    """Read the dotted ``path`` from a JSON object and cast it with ``kind``.

    A missing or null key takes ``default``; without a default it is required.
    ``source`` names the file in error messages.
    """
    *sections, key = path.split(".")
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
    # bool("no") is True and str(5) is "5", so a JSON value is taken only as its own type
    def cast(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value

    cast.__name__ = kind.__name__
    return cast


def _rgb(value) -> tuple[int, int, int]:
    if not (isinstance(value, list) and len(value) == 3 and all(type(c) is int and 0 <= c <= 255 for c in value)):
        raise ValueError(f"expected three integers in 0..255, got {value!r}")
    return tuple(value)


_rgb.__name__ = "three integers in 0..255"


def integer(value) -> int:
    # int() alone reads true as 1 and 6.5 as 6; a string (argparse's --seed) still goes through int()
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def number(value) -> float:
    if isinstance(value, bool):  # float() reads true as 1.0
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def non_negative_int(value) -> int:  # the type of every seed: numpy rejects negative ones
    if (parsed := integer(value)) < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return parsed


def _parse_run_config(cfg: dict):
    """Data root, episode spec, meta config, model keyword arguments and seeds."""
    if not isinstance(cfg, dict):
        raise ConfigError("run config must be a JSON object")
    spec = EpisodeSpec(
        ways=_field(cfg, "episode.ways", integer, 2),
        shots=_field(cfg, "episode.shots", integer, 6),
        query_multiplier=_field(cfg, "episode.queries", integer, 1),
        category_mode=_field(cfg, "episode.category_mode", _exactly(str), "room_type"),
    )
    meta = MetaConfig(
        alpha=_field(cfg, "meta.alpha", number, 1e-3),
        beta=_field(cfg, "meta.beta", number, 1e-3),
        inner_steps=_field(cfg, "meta.inner_steps", integer, 1),
        tasks_per_batch=_field(cfg, "meta.tasks_per_batch", integer, 1),
        gradient_mode=_field(cfg, "meta.gradient_mode", _exactly(str), "first_order"),
        epochs=_field(cfg, "meta.epochs", integer, 1),
        steps_per_epoch=_field(cfg, "meta.steps_per_epoch", integer, 0),
        phase_betas=_field(cfg, "meta.phase_betas", _list_of(number), ()) or None,
    )
    if "collaborative" in cfg.get("meta", {}):
        raise ConfigError("run config meta.collaborative is no longer read; set meta.tasks_per_batch instead")
    model_kwargs = dict(
        mlp1_widths=_field(cfg, "model.mlp1_widths", _list_of(integer), (64, 64)),
        mlp2_widths=_field(cfg, "model.mlp2_widths", _list_of(integer), (64, 128, 256)),
        seg_head_widths=_field(cfg, "model.seg_head_widths", _list_of(integer), (128, 64)),
        use_tnet=_field(cfg, "model.use_tnet", _exactly(bool), False),
        points_per_block=_field(cfg, "data.points_per_block", integer, 1024),
    )
    if cfg.get("model", {}).get("input_dim", INPUT_DIM) != INPUT_DIM:
        raise ConfigError(f"run config model.input_dim is no longer read; featurized blocks always have {INPUT_DIM} columns")
    seeds = {key: _field(cfg, f"seeds.{key}", non_negative_int, 0) for key in ("init", "tasks")}
    return _field(cfg, "data.root", _exactly(str)), spec, meta, model_kwargs, seeds


def write_loss_csv(history, path) -> None:
    rows = [[step, repr(float(loss)), repr(float(beta)), repr(float(alpha))] for step, loss, beta, alpha in history]
    write_file(path, csv_text([["step", "query_loss", "beta", "alpha"], *rows]))


def _run_pretrain(areas, vocab, spec, meta, model_kwargs, seeds, out: Path):
    model = PointNetConfig(num_classes=len(vocab), **model_kwargs)
    index = index_categories(areas, mode=spec.category_mode, points_per_block=model.points_per_block)
    needed = meta.epochs * meta.steps_per_epoch * meta.tasks_per_batch
    dist = build_task_distribution(index, spec, count=needed, seed=seeds["tasks"])

    def hook(epoch, state):
        save_checkpoint(out / f"ckpt_epoch{epoch}", model, state.theta)

    try:
        state = pretrain(dist, meta, model, init_seed=seeds["init"], checkpoint_hook=hook)
    except DivergenceError as exc:
        write_loss_csv(exc.last_state.history, out / "loss.csv")
        raise
    write_loss_csv(state.history, out / "loss.csv")
    return state, model


def cmd_pretrain(args) -> int:
    cfg = _load_json(args.config)
    root, spec, meta, model_kwargs, seeds = _parse_run_config(cfg)
    if args.seed is not None:
        seeds = {**seeds, "init": args.seed}
    wanted = _field(cfg, "data.areas", _list_of(_exactly(str)), ())
    # every swept beta is range-checked, and given a directory of its own, before the first run trains
    sweep = [replace(meta, beta=beta) for beta in _field(cfg, "meta.beta_sweep", _list_of(number), ())]
    if len({f"{swept.beta:g}" for swept in sweep}) < len(sweep):
        raise ConfigError(f"run config meta.beta_sweep: two of {[s.beta for s in sweep]} write one output directory")
    areas, vocab = load_dataset(root, wanted)
    out = Path(args.out)
    for run_meta, run_out in [(swept, out / f"beta_{swept.beta:g}") for swept in sweep] or [(meta, out)]:
        state, _ = _run_pretrain(areas, vocab, spec, run_meta, model_kwargs, seeds, run_out)
        final = f"{state.losses[-1]:.4f}" if state.losses else "n/a"
        print(f"beta={run_meta.beta:g}: pretrained {len(state.history)} steps, final query loss {final}")
    write_manifest(out, "pretrain", cfg, seeds, [args.config, root], dtype=state.theta.dtype)
    return 0


# ---------------------------------------------------------------------------
# adapt-eval


def _check_classes(model: PointNetConfig, vocab) -> None:
    if len(vocab) != model.num_classes:
        raise ConfigError(f"vocabulary size {len(vocab)} != checkpoint classes {model.num_classes}")


def cmd_adapt_eval(args) -> int:
    model, theta = load_checkpoint(args.checkpoint)
    areas, vocab = load_dataset(args.data, args.areas.split(",") if args.areas else ())
    _check_classes(model, vocab)
    spec = EpisodeSpec(ways=args.ways, shots=args.shots, query_multiplier=args.queries)
    report = adapt_and_eval(
        theta,
        model,
        areas,
        spec,
        episodes=args.episodes,
        rng=np.random.default_rng(args.seed),
        beta=args.beta,
        inner_steps=args.inner_steps,
        points_per_block=args.points_per_block,
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
    write_manifest(out, "adapt-eval", settings, {"seed": args.seed}, [args.checkpoint, args.data], dtype=theta.dtype)
    return 0


# ---------------------------------------------------------------------------
# cross-validate


def cmd_cross_validate(args) -> int:
    cfg = _load_json(args.config)
    root, spec, meta, model_kwargs, seeds = _parse_run_config(cfg)
    episodes = _field(cfg, "eval.episodes", integer, 20)
    eval_beta = _field(cfg, "eval.beta", number, meta.beta)
    eval_steps = _field(cfg, "eval.inner_steps", integer, meta.inner_steps)
    eval_seed = _field(cfg, "eval.seed", non_negative_int, 0)
    areas, vocab = load_dataset(root)
    out = Path(args.out)

    names = [a.name for a in areas]
    table = {test: {src: "" for src in names} for test in names}
    for source in areas:
        state, model = _run_pretrain([source], vocab, spec, meta, model_kwargs, seeds, out / f"pretrain_{source.name}")
        for target in areas:
            if target.name == source.name:
                continue
            report = adapt_and_eval(
                state.theta, model, [target], spec, episodes=episodes,
                rng=np.random.default_rng([eval_seed, names.index(source.name), names.index(target.name)]),
                beta=eval_beta, inner_steps=eval_steps,
            )
            table[target.name][source.name] = repr(report.overall.oacc)
            print(f"pretrain {source.name} -> test {target.name}: oAcc {report.overall.oacc:.4f}")
    rows = [[test] + [table[test][src] for src in names] for test in names]
    write_file(out / "crossval.csv", csv_text([["test_area"] + names, *rows]))
    write_manifest(out, "cross-validate", cfg, seeds | {"eval": eval_seed}, [args.config, root])
    return 0


# ---------------------------------------------------------------------------
# export-ply


def _load_palette(path) -> dict[int, tuple[int, int, int]]:
    loaded, source = _load_json(path), f"palette {path}"
    if not isinstance(loaded, dict):
        raise ConfigError(f"{source}: expected an object of class id -> [r, g, b]")
    for key in loaded:
        if not key.isdecimal():
            raise ConfigError(f"{source} {key}: class ids must be integers")
    return {int(key): _field(loaded, key, _rgb, source=source) for key in loaded}


def cmd_export_ply(args) -> int:
    model, theta = load_checkpoint(args.checkpoint)
    vocab = load_vocab(args.vocab)
    _check_classes(model, vocab)
    room = load_room(args.room, vocab)
    palette = dict(DEFAULT_PALETTE)
    if args.palette:
        palette = _load_palette(args.palette)
    missing = [i for i in range(model.num_classes) if i not in palette]
    if missing:
        raise ConfigError(f"palette missing colors for classes {missing}")
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


def _gradcheck_battery(bits: int, seed: int, inject_error: bool) -> tuple[str, float, float]:
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
    for i, raw in enumerate(coords):
        name = names[int(raw) % len(names)]
        flat = int(raw) % params[name].size
        ad = float(grad_array(grads[name]).ravel()[flat])
        ref = float(fd[name].ravel()[flat])
        if inject_error and i == 0:
            ad = ad * 1.5 + 1.0  # negative control: a deliberately wrong gradient
        rel = abs(ad - ref) / max(abs(ad), abs(ref), 1e-3)
        worst = max(worst, rel)
    return f"pointnet cross-entropy ({bits}-bit, 100 coords)", worst, tol


def cmd_gradcheck(args) -> int:
    name, worst, tol = _gradcheck_battery(args.bits, args.seed, args.inject_error)
    print(f"{'PASS' if worst <= tol else 'FAIL'} {name}: worst rel-err {worst:.3g} (tolerance {tol:g})")
    return 0 if worst <= tol else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pointmeta", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pointmeta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--spec", required=True, help="synthetic dataset spec (JSON)")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="load and validate a dataset, print stats")
    p.add_argument("--data", required=True, help="dataset root (areas + vocab.txt)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pretrain", help="meta-train an initialization")
    p.add_argument("--config", required=True, help="run configuration (JSON)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=non_negative_int, default=None, help="override the init seed")
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
    p.add_argument("--seed", type=non_negative_int, default=0)
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
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ply)

    p = sub.add_parser("gradcheck", help="check reverse-mode gradients against finite differences")
    p.add_argument("--bits", type=int, choices=(32, 64), default=64)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--inject-error", action="store_true", help=argparse.SUPPRESS)
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
