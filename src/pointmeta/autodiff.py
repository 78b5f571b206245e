"""Dense tensors with reverse-mode automatic differentiation on a tape.

Operations compute eagerly with numpy and, while a :class:`Tape` is active,
record themselves in creation order (which is a topological order).
``backward`` replays the tape in reverse to accumulate gradients.

The backward rule of every primitive is itself built from primitives, so
running ``backward(..., create_graph=True)`` produces gradients that are
again differentiable.  That is what the second-order meta-update relies on.

Tapes are single-writer: build one tape per task evaluation and do not share
it across threads.  Parameter stores are plain read-only data and may be
shared freely.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping

import numpy as np

from .errors import ContractError, DimensionError, ValidationError

_LOCAL = threading.local()


def _stack() -> list:
    if not hasattr(_LOCAL, "stack"):
        _LOCAL.stack = []
    return _LOCAL.stack


def active_tape():
    """The tape new operations record on, or None when nothing records."""
    stack = _stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations.

    Node ``i`` only ever depends on nodes ``< i``, so a single reverse sweep
    visits every node after all of its consumers.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self):
        _stack().append(self)
        return self

    def __exit__(self, *exc):
        _stack().pop()
        # nodes and their tape point at each other (and exp's vjp at its own
        # output), so cut every link: refcounting then frees the graph
        for node in self.nodes:
            node.parents, node._vjp, node.tape = (), None, None
        self.nodes.clear()
        return False

    def __len__(self):
        return len(self.nodes)


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode AD.

    Leaves created with ``requires_grad=True`` (typically parameters)
    collect gradients; everything else is an op output whose ``_vjp`` maps
    the output gradient to per-parent gradients.
    """

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.parents: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None
        self.tape: Tape | None = None

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


def _record(out: Tensor, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    tape = active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = parents
        out._vjp = vjp
        out.tape = tape
        tape.nodes.append(out)
    return out


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = sum_(g, axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = sum_(g, axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    out = Tensor(a.data + b.data)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    out = Tensor(a.data - b.data)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(mul(g, -1.0), b.shape)

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    out = Tensor(a.data * b.data)

    def vjp(g):  # a constant factor (a mask, the routing, one-hot labels) gets no gradient
        return (_unbroadcast(mul(g, b), a.shape) if a.requires_grad else None,
                _unbroadcast(mul(g, a), b.shape) if b.requires_grad else None)

    return _record(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    out = Tensor(a.data / b.data)

    def vjp(g):
        da = div(g, b)
        db = mul(div(mul(g, a), mul(b, b)), -1.0)
        return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)

    return _record(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def vjp(g):  # constant input features get no gradient
        return (matmul(g, transpose(b)) if a.requires_grad else None,
                matmul(transpose(a), g) if b.requires_grad else None)

    return _record(out, (a, b), vjp)


def transpose(a) -> Tensor:
    a = _lift(a)
    out = Tensor(a.data.T)  # a view: BLAS multiplies transposed operands in place

    def vjp(g):
        return (transpose(g),)

    return _record(out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    out = Tensor(a.data.reshape(shape))

    def vjp(g):
        return (reshape(g, a.shape),)

    return _record(out, (a,), vjp)


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g):
        if axis is not None and not keepdims:
            kept = list(a.shape)
            for ax in np.atleast_1d(axis):
                kept[ax] = 1
            g = reshape(g, tuple(kept))
        elif axis is None and not keepdims:
            g = reshape(g, (1,) * a.ndim)
        # times ones broadcasts g back to a's shape; x * 1 is exactly x
        return (mul(g, np.ones(a.shape, dtype=g.dtype)),)

    return _record(out, (a,), vjp)


def exp(a) -> Tensor:
    a = _lift(a)
    out = Tensor(np.exp(a.data))

    def vjp(g):
        return (mul(g, out),)

    return _record(out, (a,), vjp)


def log(a) -> Tensor:
    a = _lift(a)
    out = Tensor(np.log(a.data))

    def vjp(g):
        return (div(g, a),)

    return _record(out, (a,), vjp)


def relu(a) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly 0 is defined as 0.

    Keeps only its output: the vjp builds the 0/1 mask from it when it runs,
    so no mask lives from the forward to the backward.
    """
    a = _lift(a)
    out = Tensor(np.maximum(a.data, 0))

    def vjp(g):
        return (mul(g, Tensor((out.data > 0).astype(out.data.dtype))),)

    return _record(out, (a,), vjp)


def max_over_points(a) -> Tensor:
    """Per-feature maximum over the point axis of a [P, F] tensor, as an [F] tensor.

    The gradient of each feature flows only to its argmax point; ties break
    toward the lowest point index (numpy argmax convention).  Keeps only the
    [F] argmax; the vjp builds the [P, F] 0/1 routing from it when it runs.
    """
    a = _lift(a)
    if a.ndim != 2 or a.shape[0] < 1:
        raise DimensionError(f"max_over_points: need a non-empty [P, F] input, got {a.shape}")
    argmax, columns = np.argmax(a.data, axis=0), np.arange(a.shape[1])
    out = Tensor(a.data[argmax, columns])

    def vjp(g):
        routing = np.zeros(a.shape, dtype=a.data.dtype)
        routing[argmax, columns] = 1
        return (mul(Tensor(routing), reshape(g, (1, a.shape[1]))),)

    return _record(out, (a,), vjp)


def take_rows(a, rows) -> Tensor:
    """Rows ``rows`` of ``a``: a slice, or an index array without repeats."""
    a = _lift(a)
    out = Tensor(np.ascontiguousarray(a.data[rows]))
    n_rows = a.shape[0]

    def vjp(g):
        return (scatter_rows(g, rows, n_rows),)

    return _record(out, (a,), vjp)


def scatter_rows(a, rows, n_rows: int) -> Tensor:
    """``n_rows`` rows of zeros with ``a`` written at ``rows``; the adjoint of take_rows."""
    a = _lift(a)
    data = np.zeros((n_rows, *a.shape[1:]), dtype=a.data.dtype)
    data[rows] = a.data
    out = Tensor(data)

    def vjp(g):
        return (take_rows(g, rows),)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# composite losses


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
    # gradient is unaffected and values stay finite
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
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

    def num_values(self) -> int:
        return sum(a.size for a in self._arrays.values())


def grad_array(g) -> np.ndarray:
    return g.data if isinstance(g, Tensor) else np.asarray(g)


def backward(loss: Tensor, tape: Tape, wrt: Mapping[str, Tensor], create_graph: bool = False) -> dict[str, Tensor]:
    """Gradients of a scalar ``loss`` with respect to the ``wrt`` tensors.

    ``wrt`` maps names to tensors that participated in the tape (leaves or
    intermediates); tensors the loss does not depend on get zero gradients.
    With ``create_graph`` the returned gradients are recorded on the same
    tape and can be differentiated again.

    A node's gradient is complete once the later nodes have run; the sweep
    drops it as soon as the node has passed it to its parents, and keeps only
    the gradients of the ``wrt`` tensors, which may be intermediates.
    """
    if loss.data.shape != ():
        raise ContractError(f"loss must be a scalar, got shape {loss.data.shape}")
    if loss.tape is not tape:
        raise ContractError("loss was not produced on this tape")

    grads: dict[int, Tensor] = {id(loss): Tensor(np.ones((), dtype=loss.data.dtype))}
    kept = {id(tensor) for tensor in wrt.values()}
    nodes = list(tape.nodes)
    # record the backward ops on the same tape (create_graph) or, with None
    # on top of the stack, nowhere
    stack = _stack()
    stack.append(tape if create_graph else None)
    try:
        for node in reversed(nodes):
            g = grads.get(id(node)) if id(node) in kept else grads.pop(id(node), None)
            if g is None or node._vjp is None:
                continue
            for parent, pg in zip(node.parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                held = grads.get(id(parent))
                grads[id(parent)] = pg if held is None else add(held, pg)
    finally:
        stack.pop()

    return {name: grads[id(t)] if id(t) in grads else Tensor(np.zeros(t.shape, dtype=t.data.dtype))
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
