"""Dense tensors with reverse-mode automatic differentiation on a tape.

Operations compute eagerly with numpy and, while a :class:`Tape` is active,
record a :class:`Node` in creation order (which is a topological order).
``backward`` replays the tape in reverse from seeded outputs to accumulate gradients.

The thirteen primitives, the ops that call ``_record``, are ``add sub mul
div matmul transpose reshape sum_ exp log relu take_rows scatter_rows``;
``max_over_points`` and ``cross_entropy`` are composites of them.  The
backward rule of every primitive is itself built from primitives, so
running ``backward(..., create_graph=True)`` produces gradients that are
again differentiable.  That is what the second-order meta-update relies on.
While a tape records, ``take_rows`` of a recorded tensor by a slice is
recorded once on it, so a row block is one node however many blocks read
it; ``matmul`` with an inner size of 1 is ``a * b``, the bits of ``a @ b``.

Ownership: a :class:`Tensor` is a value, an array plus its ``node`` (None for
a constant).  A node holds its parents' nodes, its vjp and its tape, never
an array, so a recorded value lives only as long as its holders or a vjp
that reads it.  Each vjp keeps only what it reads: ``add``, ``sub``,
``transpose``, ``reshape``, ``sum_``, ``take_rows`` and ``scatter_rows``
keep shapes and indices; ``mul`` and ``matmul`` keep an operand only when
the other one needs a gradient; ``relu`` and ``exp`` keep their output;
``log`` and ``div`` keep their inputs.  ``add``, ``sub``, ``mul`` and
``matmul`` give a constant operand no gradient.  ``relu``'s mask is built
when the vjp runs, as a 1-byte bool array: a float times a bool has the
bits of a float times 1.0 or 0.0.  A ``backward`` without ``create_graph``
is a tape's last sweep: it drops each vjp as it passes it, and the tape
refuses a further sweep.  As nothing records its sums, it adds a node's
gradient contributions in numpy: the second makes a new array, and the
later ones go into that array in place, in the order ``add`` would take
them, so the bits are those of a recording sweep.  It writes only the
arrays it made, each while its node has yet to run (a vjp may hand it on to
the node's parents, but the sweep reaches no node twice); a seed, a vjp's
output and a returned gradient are never written.

Tapes are single-writer: build one tape per task evaluation and do not share
it across threads.  Parameter stores are plain read-only data and may be
shared freely.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping

import numpy as np

from .errors import ContractError, DimensionError, ValidationError


class _Local(threading.local):
    def __init__(self):  # runs once in each thread that reads it
        self.stack = []  # the tapes that record, innermost last; None while a backward records nowhere


_LOCAL = _Local()


def active_tape():
    """The tape new operations record on, or None when nothing records."""
    stack = _LOCAL.stack
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations.

    Node ``i`` only ever depends on nodes ``< i``, so a single reverse sweep
    visits every node after all of its consumers.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.swept = False  # set by a backward without create_graph, which drops the vjps
        self.slices: dict[tuple, Tensor] = {}  # (node, start, stop, step) -> that slice's take_rows, taken once

    def __enter__(self):
        _LOCAL.stack.append(self)
        return self

    def __exit__(self, *exc):
        _LOCAL.stack.pop()
        self.slices.clear()
        # nodes and their tape point at each other, and exp's vjp at its own
        # output, whose node owns that vjp: cut both cycles, and the parent
        # links so that a value held past the block pins no node
        for node in self.nodes:
            node.parents, node.vjp, node.tape = (), None, None
        self.nodes.clear()
        return False

    def __len__(self):
        return len(self.nodes)


class Node:
    """One recorded operation, or a leaf that collects a gradient.

    Holds its parents' nodes (None for a constant parent), the vjp that maps
    the output gradient to per-parent gradients and its tape; never the
    output array.
    """

    __slots__ = ("parents", "vjp", "tape")

    def __init__(self, parents: tuple, vjp: Callable | None, tape: Tape | None):
        self.parents = parents
        self.vjp = vjp
        self.tape = tape


class Tensor:
    """A dense array and its graph node: None for a constant.

    Leaves created with ``requires_grad=True`` (typically parameters) get a
    node without parents, so they collect gradients; an op output gets a
    node when a tape records it.
    """

    __slots__ = ("data", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.node = Node((), None, None) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad})"

    # arithmetic sugar; second operand may be a plain number or array
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


def _lift(value, like: Tensor | None = None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(value, dtype=dtype))


def _lift_pair(a, b) -> tuple[Tensor, Tensor]:
    if isinstance(a, Tensor):
        return a, _lift(b, like=a)
    return _lift(a, like=b), b


def _record(data, parents: tuple, vjp: Callable) -> Tensor:
    """The op output ``data`` as a tensor, recorded when one of the ``parents`` nodes is not None."""
    out = Tensor(data)
    tape = active_tape()
    if tape is not None and any(parents):
        out.node = Node(parents, vjp, tape)
        tape.nodes.append(out.node)
    return out


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = sum_(g, axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = sum_(g, axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives; each vjp closes over only what it reads (see the module docstring)


def add(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    # a constant operand (cross_entropy's row-max shift) gets no gradient
    a_shape = a.data.shape if a.node is not None else None
    b_shape = b.data.shape if b.node is not None else None

    def vjp(g):
        return (_unbroadcast(g, a_shape) if a_shape is not None else None,
                _unbroadcast(g, b_shape) if b_shape is not None else None)

    return _record(a.data + b.data, (a.node, b.node), vjp)


def sub(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    a_shape = a.data.shape if a.node is not None else None
    b_shape = b.data.shape if b.node is not None else None

    def vjp(g):
        return (_unbroadcast(g, a_shape) if a_shape is not None else None,
                _unbroadcast(mul(g, -1.0), b_shape) if b_shape is not None else None)

    return _record(a.data - b.data, (a.node, b.node), vjp)


def mul(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    a_shape, b_shape = a.data.shape, b.data.shape
    # a constant factor (a mask, one-hot labels) gets no gradient,
    # so the other factor is kept only when this one needs it
    a_factor = b if a.node is not None else None
    b_factor = a if b.node is not None else None

    def vjp(g):
        return (_unbroadcast(mul(g, a_factor), a_shape) if a_factor is not None else None,
                _unbroadcast(mul(g, b_factor), b_shape) if b_factor is not None else None)

    return _record(a.data * b.data, (a.node, b.node), vjp)


def div(a, b) -> Tensor:
    a, b = _lift_pair(a, b)

    def vjp(g):
        da = div(g, b)
        db = mul(div(mul(g, a), mul(b, b)), -1.0)
        return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)

    return _record(a.data / b.data, (a.node, b.node), vjp)


def matmul(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    # constant input features get no gradient, so x @ W keeps x for dW only
    a_factor = b if a.node is not None else None
    b_factor = a if b.node is not None else None

    def vjp(g):
        return (matmul(g, transpose(a_factor)) if a_factor is not None else None,
                matmul(transpose(b_factor), g) if b_factor is not None else None)

    # an outer product ([m, 1] @ [1, n]) is one product per entry and no sum, so ``*`` gives the bits of ``@``
    return _record(a.data * b.data if a.shape[1] == 1 else a.data @ b.data, (a.node, b.node), vjp)


def transpose(a) -> Tensor:
    a = _lift(a)

    def vjp(g):
        return (transpose(g),)

    return _record(a.data.T, (a.node,), vjp)  # a view: BLAS multiplies transposed operands in place


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    a_shape = a.data.shape

    def vjp(g):
        return (reshape(g, a_shape),)

    return _record(a.data.reshape(shape), (a.node,), vjp)


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    a_shape = a.data.shape

    def vjp(g):
        if axis is not None and not keepdims:
            kept = list(a_shape)
            for ax in np.atleast_1d(axis):
                kept[ax] = 1
            g = reshape(g, tuple(kept))
        elif axis is None and not keepdims:
            g = reshape(g, (1,) * len(a_shape))
        # times ones broadcasts g back to a's shape (x * 1 is exactly x); one 1 seen through zero strides holds no a-sized array
        return (mul(g, np.ndarray(a_shape, g.dtype, np.ones(1, g.dtype), strides=(0,) * len(a_shape))),)

    return _record(a.data.sum(axis=axis, keepdims=keepdims), (a.node,), vjp)


def exp(a) -> Tensor:
    a = _lift(a)

    def vjp(g):
        return (mul(g, out),)

    out = _record(np.exp(a.data), (a.node,), vjp)
    return out


def log(a) -> Tensor:
    a = _lift(a)

    def vjp(g):
        return (div(g, a),)

    return _record(np.log(a.data), (a.node,), vjp)


def relu(a) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly 0 is defined as 0.

    Keeps only its output array: the vjp builds the bool mask ``data > 0``
    from it when it runs, so no mask lives from the forward to the backward.
    """
    a = _lift(a)
    data = np.maximum(a.data, 0)

    def vjp(g):
        return (mul(g, Tensor(data > 0)),)

    return _record(data, (a.node,), vjp)


def take_rows(a, rows) -> Tensor:
    """Rows ``rows`` of ``a``: a slice, or an index array that may repeat rows; a recorded slice is taken once per tape."""
    a, tape = _lift(a), active_tape()
    key = (a.node, rows.start, rows.stop, rows.step) if isinstance(rows, slice) else None  # a slice hashes from 3.12 only
    if tape is not None and key in tape.slices:
        return tape.slices[key]
    n_rows = a.shape[0]

    def vjp(g):
        return (scatter_rows(g, rows, n_rows),)

    out = _record(np.ascontiguousarray(a.data[rows]), (a.node,), vjp)
    if out.node is not None and key is not None:
        tape.slices[key] = out
    return out


def scatter_rows(a, rows, n_rows: int) -> Tensor:
    """``n_rows`` rows of zeros with ``a``'s rows added at ``rows``; the adjoint of take_rows.

    A row named more than once gets the sum of its rows of ``a``, in index order;
    a row named once gets its row's bytes, except that ``0.0 + -0.0`` is ``0.0``.
    """
    a = _lift(a)
    data = np.zeros((n_rows, *a.shape[1:]), dtype=a.data.dtype)
    if isinstance(rows, slice):
        data[rows] = a.data
    else:
        np.add.at(data, rows, a.data)

    def vjp(g):
        return (take_rows(g, rows),)

    return _record(data, (a.node,), vjp)


# ---------------------------------------------------------------------------
# composites


def max_over_points(a) -> Tensor:
    """Per-feature maximum over the point axis of a [P, F] tensor, as a [1, F] row.

    One ``take_rows`` of the flattened input at each column's first maximum
    (numpy's argmax, so ties go to the lowest point index): the gradient of a
    feature reaches only that entry, through take_rows' adjoint.
    """
    a = _lift(a)
    if a.ndim != 2 or a.shape[0] < 1:
        raise DimensionError(f"max_over_points: need a non-empty [P, F] input, got {a.shape}")
    n_points, n_features = a.shape
    rows = np.argmax(a.data, axis=0) * n_features + np.arange(n_features)
    return transpose(take_rows(reshape(a, (n_points * n_features, 1)), rows))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of [P, C] logits against P class indices."""
    logits = _lift(logits)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy: logits must be [P, C], got {logits.shape}")
    labels = np.asarray(labels)
    n_points, n_classes = logits.shape
    if labels.shape != (n_points,):
        raise DimensionError(f"cross_entropy: labels shape {labels.shape} does not match {n_points} points")
    bad = np.nonzero((labels < 0) | (labels >= n_classes))[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"label {int(labels[i])} out of range [0, {n_classes}) at point {i}")

    onehot = np.zeros(logits.shape, dtype=logits.data.dtype)
    onehot[np.arange(n_points), labels] = 1
    # the row-max shift is a constant: softmax is shift invariant, so the
    # gradient is unaffected and values stay finite; a column-major copy takes
    # each row's max as C - 1 contiguous sweeps, not P reductions of C numbers
    shift = Tensor(np.asfortranarray(logits.data).max(axis=1, keepdims=True))
    shifted = sub(logits, shift)
    logsumexp = log(sum_(exp(shifted), axis=1, keepdims=True))
    logprobs = sub(shifted, logsumexp)
    picked = sum_(mul(logprobs, Tensor(onehot)))
    return mul(picked, -1.0 / n_points)


# ---------------------------------------------------------------------------
# parameters and gradients


class ParamStore(Mapping):
    """Ordered ``name -> ndarray`` parameter store with a single precision.

    Stores are treated as immutable: updates return new stores.  Arrays are
    not copied on construction, so callers must hand over fresh arrays.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray], dtype=None):
        self._arrays = {name: np.asarray(value, dtype=dtype) for name, value in arrays.items()}
        dtypes = {a.dtype for a in self._arrays.values()}
        if len(dtypes) > 1:
            raise ContractError(f"mixed parameter dtypes: {sorted(map(str, dtypes))}")

    @property
    def dtype(self):
        if not self._arrays:
            return np.dtype(np.float32)
        return next(iter(self._arrays.values())).dtype

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __len__(self):
        return len(self._arrays)

    def __iter__(self):
        return iter(self._arrays)

    def copy(self) -> "ParamStore":
        return ParamStore({n: a.copy() for n, a in self._arrays.items()})

    def astype(self, dtype) -> "ParamStore":
        return ParamStore({n: a.astype(dtype) for n, a in self._arrays.items()})

    def tensors(self) -> dict[str, Tensor]:
        """Fresh leaf tensors, one per parameter, keyed by name."""
        return {n: Tensor(a, requires_grad=True) for n, a in self._arrays.items()}


def grad_array(g) -> np.ndarray:
    return g.data if isinstance(g, Tensor) else np.asarray(g)


def backward(loss, tape: Tape, wrt: Mapping[str, Tensor], create_graph: bool = False) -> dict[str, Tensor]:
    """Gradients of ``loss`` with respect to the ``wrt`` tensors.

    ``loss`` is a scalar tensor, seeded with 1, or a mapping from output
    tensors to seeds of their shapes, whose vector-Jacobian product the sweep
    gives: the gradients of the sum of each output times its seed.
    ``wrt`` maps names to tensors that participated in the tape (leaves or
    intermediates); tensors the outputs do not depend on get zero gradients.
    With ``create_graph`` the returned gradients are recorded on the same
    tape and can be differentiated again.  Without it the sweep is the
    tape's last: it drops each node's vjp, and with it the values that vjp
    kept, as it passes the node, so a later ``backward`` on the tape raises.

    A node's gradient is complete once the later nodes have run; the sweep
    drops it as soon as the node has passed it to its parents, and keeps only
    the gradients of the ``wrt`` tensors, which may be intermediates.
    """
    seeds = loss if isinstance(loss, Mapping) else {loss: np.ones((), dtype=loss.data.dtype)}
    grads: dict[Node, Tensor] = {}
    for out, seed in seeds.items():
        if out.node is None or out.node.tape is not tape:
            raise ContractError("an output was not recorded on this tape")
        if np.shape(seed) != out.data.shape:
            raise ContractError(f"seed shape {np.shape(seed)} != output shape {out.data.shape}")
        grads[out.node] = Tensor(np.asarray(seed, dtype=out.data.dtype))
    if tape.swept:
        raise ContractError("tape was already swept by a backward without create_graph")
    tape.swept = not create_graph

    kept = {tensor.node for tensor in wrt.values()}
    nodes = list(tape.nodes)
    owned = set()  # nodes whose gradient sum is an array this sweep made; none gains a term once it has run
    # record the backward ops on the same tape (create_graph) or, with None
    # on top of the stack, nowhere
    stack = _LOCAL.stack
    stack.append(tape if create_graph else None)
    try:
        for node in reversed(nodes):
            vjp = node.vjp
            if not create_graph:
                node.vjp = None
            g = grads.get(node) if node in kept else grads.pop(node, None)
            if g is None or vjp is None:
                continue
            for parent, pg in zip(node.parents, vjp(g)):
                if pg is None or parent is None:
                    continue
                held = grads.get(parent)
                if held is None:
                    grads[parent] = pg
                elif create_graph:
                    grads[parent] = add(held, pg)
                elif parent in owned:
                    np.add(held.data, pg.data, out=held.data)
                else:
                    grads[parent] = Tensor(held.data + pg.data)
                    owned.add(parent)
    finally:
        stack.pop()

    return {name: grads[t.node] if t.node in grads else Tensor(np.zeros(t.shape, dtype=t.data.dtype))
            for name, t in wrt.items()}


def sgd_step(params: ParamStore, grads: Mapping[str, Tensor], lr: float) -> ParamStore:
    """One plain gradient-descent step, ``p - lr * g`` per parameter.

    Functional: the input store is untouched.
    """
    missing = [n for n in params.keys() if n not in grads]
    if missing:
        raise ContractError(f"gradient missing for parameters: {missing}")
    updated = {}
    for name, value in params.items():
        g = grad_array(grads[name])
        if g.shape != value.shape:
            raise ContractError(f"gradient shape {g.shape} != parameter shape {value.shape} for {name!r}")
        updated[name] = value - np.asarray(lr, dtype=value.dtype) * g
    return ParamStore(updated)


def finite_diff_gradient(f: Callable[[ParamStore], float], params: ParamStore, eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient estimate, one coordinate at a time.

    Slow by construction; this is the oracle the reverse-mode engine is
    checked against, so it must stay independent of the tape machinery.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    work = {n: a.copy() for n, a in params.items()}
    store = ParamStore(work)
    out = {}
    for name, array in work.items():
        grad = np.zeros_like(array)
        it = np.nditer(array, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            saved = array[idx]
            array[idx] = saved + eps
            up = f(store)
            array[idx] = saved - eps
            down = f(store)
            array[idx] = saved
            grad[idx] = (up - down) / (2 * eps)
            it.iternext()
        out[name] = grad
    return out
