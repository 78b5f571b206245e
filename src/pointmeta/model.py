"""Compact PointNet-style network for per-point semantic labels.

A block of P points with 9 features each goes through a shared per-point
MLP, a second per-point MLP whose output is max-pooled into a single global
feature, and a segmentation head whose first layer is
``local @ W_local + global @ W_global``, the row-block split of one weight.
An optional T-Net predicts a 3x3 transform for the raw XYZ columns before
any of that.  Past F points, a max-pooled MLP of last width F is recorded
only on F points that hold every column's maximum (see ``_pooled_chain``).
No batch normalization anywhere: every forward is a pure function of
(params, block), which keeps per-task adaptation a plain gradient step.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import ParamStore, Tensor, active_tape, matmul, max_over_points, relu, reshape, take_rows
from .data import write_file
from .errors import ConfigError, DimensionError

CHECKPOINT_MAGIC = "PMCKPT"
CHECKPOINT_VERSION = 1
INPUT_DIM = 9  # the columns of data.featurize_block

# internal widths of the 3x3 input-transform regressor
TNET_MLP_WIDTHS = (32, 64)
TNET_FC_WIDTHS = (32,)


@dataclass(frozen=True)
class PointNetConfig:
    num_classes: int
    mlp1_widths: tuple[int, ...] = (64, 64)
    mlp2_widths: tuple[int, ...] = (64, 128, 256)
    seg_head_widths: tuple[int, ...] = (128, 64)
    use_tnet: bool = False
    points_per_block: int = 1024

    def __post_init__(self):
        def at_least(value, least):  # a checkpoint header passes JSON values, so 3.0 or true is not read as 3 or 1
            return isinstance(value, int) and not isinstance(value, bool) and value >= least

        for name in ("mlp1_widths", "mlp2_widths", "seg_head_widths"):
            widths = tuple(getattr(self, name))
            object.__setattr__(self, name, widths)
            if not widths or not all(at_least(w, 1) for w in widths):
                raise ConfigError(f"{name} must be integers >= 1, got {widths}")
        if not at_least(self.num_classes, 2):
            raise ConfigError(f"num_classes must be an integer >= 2, got {self.num_classes!r}")
        if not at_least(self.points_per_block, 1):
            raise ConfigError(f"points_per_block must be an integer >= 1, got {self.points_per_block!r}")
        if not isinstance(self.use_tnet, bool):
            raise ConfigError(f"use_tnet must be true or false, got {self.use_tnet!r}")


def layer_shapes(config: PointNetConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Deterministic (name, shape) listing of every parameter.

    The main network comes first and the T-Net last, so toggling
    ``use_tnet`` does not change how the shared layers are initialized.
    """
    shapes: list[tuple[str, tuple[int, ...]]] = []

    def dense(prefix, dims):
        fan_in = dims[0]
        for i, width in enumerate(dims[1:]):
            shapes.append((f"{prefix}.{i}.w", (fan_in, width)))
            shapes.append((f"{prefix}.{i}.b", (width,)))
            fan_in = width
        return fan_in

    local = dense("mlp1", (INPUT_DIM, *config.mlp1_widths))
    global_dim = dense("mlp2", (local, *config.mlp2_widths))
    head_in = local + global_dim
    head_out = dense("head", (head_in, *config.seg_head_widths))
    shapes.append(("out.w", (head_out, config.num_classes)))
    shapes.append(("out.b", (config.num_classes,)))

    if config.use_tnet:
        pooled = dense("tnet.mlp", (3, *TNET_MLP_WIDTHS))
        fc_out = dense("tnet.fc", (pooled, *TNET_FC_WIDTHS))
        shapes.append(("tnet.out.w", (fc_out, 9)))
        shapes.append(("tnet.out.b", (9,)))
    return shapes


def init_params(config: PointNetConfig, seed: int, dtype=np.float32) -> ParamStore:
    """Zero-mean uniform fan-in weights, zero biases, deterministic per seed.

    The T-Net output layer starts at zero weights with an identity bias so
    the predicted transform is exactly the identity at initialization.
    """
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in layer_shapes(config):
        if name == "tnet.out.w":
            arrays[name] = np.zeros(shape, dtype=dtype)
        elif name == "tnet.out.b":
            arrays[name] = np.eye(3, dtype=dtype).reshape(9)
        elif name.endswith(".b"):
            arrays[name] = np.zeros(shape, dtype=dtype)
        else:
            # uniform fan-in bound with the relu gain, so activation scale
            # survives the depth of the shared MLP stack
            bound = np.sqrt(6.0 / shape[0])
            arrays[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return ParamStore(arrays)


def _as_tensors(params) -> dict[str, Tensor]:
    if isinstance(params, ParamStore):
        return params.tensors()
    return params


def _dense_chain(tensors, prefix: str, n_layers: int, *parts) -> Tensor:
    """Dense relu layers whose first layer takes its input as column blocks.

    Each part multiplies its own row block of the first weight, so the
    blocks are never concatenated; a [1, H] product broadcasts in ``add``.
    """
    w, x, start = tensors[f"{prefix}.0.w"], None, 0
    for part in parts:
        weight = w if len(parts) == 1 else take_rows(w, slice(start, start + part.shape[1]))
        start += part.shape[1]
        term = matmul(part, weight)
        x = term if x is None else x + term
    x = relu(x + tensors[f"{prefix}.0.b"])
    for i in range(1, n_layers):
        x = relu(matmul(x, tensors[f"{prefix}.{i}.w"]) + tensors[f"{prefix}.{i}.b"])
    return x


def _pooled_chain(tensors, prefix: str, n_layers: int, x: Tensor) -> Tensor:
    """``max_over_points`` of a ``_dense_chain`` of last width F, a [1, F] row, recorded on at most F rows.

    With P > F while a tape records, an unrecorded pass marks each column's first
    maximum and pads the set with the lowest other rows to exactly F (fixed shapes);
    the pool's values, first maxima and gradients stay the same, as the rows left
    out get none from its gather.  That pass is numpy in place, its products
    through the counted ``matmul``; the last one is ``W.T @ h.T``, so each column
    of the chain is a contiguous row to take the first maximum of.  With no tape
    recording, the chain runs once on all P rows.
    """
    width = tensors[f"{prefix}.{n_layers - 1}.b"].shape[0]
    if x.shape[0] > width and active_tape() is not None:
        layers = [(tensors[f"{prefix}.{i}.w"].data, tensors[f"{prefix}.{i}.b"].data) for i in range(n_layers)]
        h = x.data
        for w, b in layers[:-1]:
            h = matmul(Tensor(h), Tensor(w)).data
            h += b
            np.maximum(h, 0, out=h)
        w, b = layers[-1]
        deep = matmul(Tensor(w.T), Tensor(h.T)).data  # [F, P]
        deep += b[:, None]
        np.maximum(deep, 0, out=deep)
        keep = np.zeros(x.shape[0], dtype=bool)
        keep[np.argmax(deep, axis=1)] = True
        keep[np.flatnonzero(~keep)[: width - np.count_nonzero(keep)]] = True
        x = take_rows(x, np.flatnonzero(keep))
    return max_over_points(_dense_chain(tensors, prefix, n_layers, x))


def tnet_transform(config: PointNetConfig, params, xyz) -> Tensor:
    """Apply the predicted 3x3 transform to [P, 3] coordinates."""
    if not config.use_tnet:
        raise ConfigError("tnet_transform called but use_tnet is disabled")
    tensors = _as_tensors(params)
    xyz = xyz if isinstance(xyz, Tensor) else Tensor(xyz)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise DimensionError(f"tnet_transform expects [P, 3] coordinates, got {xyz.shape}")
    pooled = _pooled_chain(tensors, "tnet.mlp", len(TNET_MLP_WIDTHS), xyz)
    h = _dense_chain(tensors, "tnet.fc", len(TNET_FC_WIDTHS), pooled)
    matrix = reshape(matmul(h, tensors["tnet.out.w"]) + tensors["tnet.out.b"], (3, 3))
    return matmul(xyz, matrix)


def forward(config: PointNetConfig, params, features, return_pooled: bool = False):
    """Per-point class logits for one [P, INPUT_DIM] numpy feature block.

    ``params`` may be a ParamStore or a name->Tensor mapping (as used inside
    adaptation, where parameters are themselves graph nodes).  With
    ``return_pooled``, the [1, F] global feature comes back as well.
    """
    tensors = _as_tensors(params)
    x = np.asarray(features)
    if x.ndim != 2 or x.shape[1] != INPUT_DIM:
        raise DimensionError(f"forward expects [P, {INPUT_DIM}] features, got {x.shape}")
    if x.shape[0] < 1:
        raise DimensionError("forward needs at least one point")

    # run the pipeline in a canonical point order: BLAS matmul kernels are
    # not bit-stable under row permutation, so sorting the rows first makes
    # permutation equivariance exact instead of approximate; the sort is a
    # constant, so only the logits go back to the caller's order on the tape
    order = np.lexsort(x.T[::-1])
    x = x[order]

    if config.use_tnet:
        xyz, rest = np.ascontiguousarray(x[:, :3]), np.ascontiguousarray(x[:, 3:])
        inputs = (tnet_transform(config, tensors, xyz), Tensor(rest))
    else:
        inputs = (Tensor(x),)
    local = _dense_chain(tensors, "mlp1", len(config.mlp1_widths), *inputs)
    pooled = _pooled_chain(tensors, "mlp2", len(config.mlp2_widths), local)
    h = _dense_chain(tensors, "head", len(config.seg_head_widths), local, pooled)
    logits = take_rows(matmul(h, tensors["out.w"]) + tensors["out.b"], np.argsort(order))
    return (logits, pooled) if return_pooled else logits


def predict_labels(logits) -> np.ndarray:
    """Argmax class per point; ties go to the lowest class index."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    return np.argmax(data, axis=1)


# ---------------------------------------------------------------------------
# checkpoints: one text header line, a JSON header, then raw little-endian
# parameter bytes in header order.  Loading restores the exact bits.


def _dtype_code(dtype) -> str:
    return {np.dtype(np.float32): "float32", np.dtype(np.float64): "float64"}[np.dtype(dtype)]


def save_checkpoint(path, config: PointNetConfig, params: ParamStore) -> None:
    header = {
        "format_version": CHECKPOINT_VERSION,
        "dtype": _dtype_code(params.dtype),
        "config": {**asdict(config), "input_dim": INPUT_DIM},  # kept so checkpoints stay byte-identical
        "params": [{"name": n, "shape": list(a.shape)} for n, a in params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    little = "<f4" if header["dtype"] == "float32" else "<f8"
    arrays = [np.ascontiguousarray(array, dtype=little).tobytes() for _, array in params.items()]
    write_file(path, b"".join([f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} {len(blob)}\n".encode("ascii"), blob, *arrays]))


def load_checkpoint(path) -> tuple[PointNetConfig, ParamStore]:
    with open(path, "rb") as fh:
        first = fh.readline().decode("ascii", errors="replace").split()
        if len(first) != 3 or first[0] != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file")
        if first[1] != f"v{CHECKPOINT_VERSION}":
            raise ConfigError(f"{path}: unsupported checkpoint version {first[1]}")
        try:
            # ValueError covers a non-integer length and bad UTF-8 or JSON
            header = json.loads(fh.read(int(first[2])).decode("utf-8"))
            fields = dict(header["config"])
            input_dim = fields.pop("input_dim", INPUT_DIM)
            config = PointNetConfig(**fields)
            dtype = header["dtype"]
            listed = [(entry["name"], tuple(entry["shape"])) for entry in header["params"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed checkpoint header ({type(exc).__name__}: {exc})") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not isinstance(input_dim, int) or input_dim != INPUT_DIM:
            raise ConfigError(f"{path}: checkpoint input_dim is not the {INPUT_DIM} feature columns")
        if dtype not in ("float32", "float64"):
            raise ConfigError(f"{path}: unsupported parameter dtype {dtype!r}")
        # forward slices weights by the config's widths, so the listing must be exact, JSON types too
        expected = layer_shapes(config)
        if json.dumps(listed) != json.dumps(expected):
            raise ConfigError(f"{path}: parameter names or shapes do not match the header config")
        little = "<f4" if dtype == "float32" else "<f8"
        itemsize = np.dtype(little).itemsize
        arrays = {}
        for name, shape in expected:
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * itemsize)
            if len(raw) != count * itemsize:
                raise ConfigError(f"{path}: truncated parameter data for {name!r}")
            arrays[name] = np.frombuffer(raw, dtype=little).reshape(shape).astype(dtype)
        if fh.read(1):
            raise ConfigError(f"{path}: unexpected bytes after the last parameter")
    return config, ParamStore(arrays)
