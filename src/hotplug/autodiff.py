"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is define-by-run: a primitive records its inputs and a
vector-Jacobian closure on the active tape only outside ``no_grad`` and when
some input is trainable or ``needs_grad``, and ``backward`` walks that tape once
in reverse. Ops on constants alone record nothing; ``matmul`` (with its
bias) and ``layer_norm`` skip the gradients of constant inputs, and the
activations and ``log_softmax_rows`` build derivative state only in their
closures. Arrays are plain numpy ``float64``; there is no implicit
broadcasting except ``matmul``'s bias over the last axis.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import ndtr

from .errors import (
    ContractError,
    DegenerateVectorError,
    DimensionError,
    ParameterError,
)

EPSILON_NORM = 1e-12
LAYER_NORM_EPS = 1e-5

class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    ``trainable`` marks leaves that ``backward`` should populate and
    ``needs_grad`` the output of a recorded primitive; a tensor with neither
    is a constant, and no gradient is formed for it.
    """

    __slots__ = ("values", "grad", "trainable", "needs_grad")

    def __init__(self, values, trainable: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.trainable = bool(trainable)
        self.needs_grad = False

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, trainable={self.trainable})"


class Tape:
    """Ordered record of executed primitives (creation order == topological)."""

    def __init__(self):
        self.records = []  # (out_tensor, parent_tensors, vjp)

    def __len__(self):
        return len(self.records)


_tape = Tape()
_grad_enabled = True


def current_tape() -> Tape:
    return _tape


@contextmanager
def new_tape():
    """Install a fresh tape for the duration of the block."""
    global _tape
    saved = _tape
    _tape = Tape()
    try:
        yield _tape
    finally:
        _tape = saved


@contextmanager
def no_grad():
    """Disable recording; forwards still compute values."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _wants_grad(t: Tensor) -> bool:
    return t.trainable or t.needs_grad


def _record(out: Tensor, parents, vjp):
    """Tape ``out`` if recording is on and some parent wants a gradient."""
    if not _grad_enabled:
        return
    for p in parents:  # a loop, not any(): this runs once per primitive call
        if p.trainable or p.needs_grad:
            out.needs_grad = True
            _tape.records.append((out, tuple(parents), vjp))
            return


def backward(loss: Tensor):
    """Populate ``grad`` on every trainable ancestor of a scalar loss.

    Gradients accumulate into existing ``grad`` buffers (reset ``grad`` to
    None between independent passes).
    """
    if loss.values.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    grads = {loss: np.ones_like(loss.values)}  # keyed by tensor identity
    for out, parents, vjp in reversed(_tape.records):
        g = grads.pop(out, None)
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or not _wants_grad(parent):
                continue
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg
    # Every recorded output was popped above, so what is left are the leaves.
    for leaf, g in grads.items():
        if leaf.trainable:
            leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.values + b.values)
    _record(out, (a, b), lambda g: (g, g))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.values - b.values)
    _record(out, (a, b), lambda g: (g, -g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.values * b.values)
    av, bv = a.values, b.values
    _record(out, (a, b), lambda g: (g * bv, g * av))
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.values * c)
    _record(out, (a,), lambda g: (g * c,))
    return out


def mul_const(a: Tensor, const) -> Tensor:
    """Elementwise product with a fixed array (no gradient into the array)."""
    const = np.asarray(const, dtype=np.float64)
    if const.shape != a.shape:
        raise DimensionError(f"mul_const: incompatible shapes {a.shape} and {const.shape}")
    out = Tensor(a.values * const)
    _record(out, (a,), lambda g: (g * const,))
    return out


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product; leading batch axes on ``a`` (or both) are supported.

    ``b`` may be a plain 2-D weight shared across the batch: a dense layer,
    whose ``bias`` (rank 1) is added over the last axis. Its gradients are
    then single GEMMs over all leading rows of ``a``.
    """
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2:
        raise DimensionError(f"matmul: operands must be >=2-D, got {a.shape} and {b.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    if bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2]:
        raise DimensionError(f"matmul: batch dimensions disagree for {a.shape} and {b.shape}")
    if bias is not None and (bv.ndim != 2 or bias.shape != bv.shape[-1:]):
        raise DimensionError(f"matmul: bias {bias.shape} does not fit weight {b.shape}")
    out = np.matmul(av, bv)
    if bias is not None:
        out += bias.values
    out = Tensor(out)

    def vjp(g):
        if bv.ndim > 2:
            return (np.matmul(g, np.swapaxes(bv, -1, -2)) if _wants_grad(a) else None,
                    np.matmul(np.swapaxes(av, -1, -2), g) if _wants_grad(b) else None)
        g2 = g.reshape(-1, g.shape[-1])
        da = (g2 @ bv.T).reshape(av.shape) if _wants_grad(a) else None
        db = av.reshape(-1, av.shape[-1]).T @ g2 if _wants_grad(b) else None
        if bias is None:
            return da, db
        return da, db, g2.sum(axis=0) if _wants_grad(bias) else None

    _record(out, (a, b) if bias is None else (a, b, bias), vjp)
    return out


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.values, axes))
    _record(out, (a,), lambda g: (np.transpose(g, inv),))
    return out


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    orig = a.values.shape
    out = Tensor(a.values.reshape(shape))
    _record(out, (a,), lambda g: (g.reshape(orig),))
    return out


def index_select(a: Tensor, axis: int, index: int) -> Tensor:
    """Pick one slice along ``axis`` (the axis is dropped)."""
    out = Tensor(np.take(a.values, index, axis=axis))
    shape = a.values.shape

    def vjp(g):
        da = np.zeros(shape)
        sl = [slice(None)] * len(shape)
        sl[axis] = index
        da[tuple(sl)] = g
        return (da,)

    _record(out, (a,), vjp)
    return out


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat: no operands")
    out = Tensor(np.concatenate([t.values for t in tensors], axis=axis))
    sizes = [t.values.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    _record(out, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))
    return out


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Broadcast to a larger shape; gradient sums over the broadcast axes."""
    shape = tuple(shape)
    out = Tensor(np.broadcast_to(a.values, shape).copy())
    ndim_extra = len(shape) - a.values.ndim
    orig = a.values.shape
    reduce_axes = tuple(range(ndim_extra)) + tuple(
        i + ndim_extra for i, n in enumerate(orig) if n == 1 and shape[i + ndim_extra] != 1)

    def vjp(g):
        da = g.sum(axis=reduce_axes) if reduce_axes else g
        return (da.reshape(orig),)

    _record(out, (a,), vjp)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a (vocab, k) table by an integer id array."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ParameterError("embedding_lookup: id out of range")
    out = Tensor(table.values[ids])
    vocab, width = table.shape

    def vjp(g):
        dt = np.zeros((vocab, width))
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, width))
        return (dt,)

    _record(out, (table,), vjp)
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.values.sum())
    shape = a.values.shape
    _record(out, (a,), lambda g: (np.broadcast_to(g, shape).copy(),))
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.values.size
    if n == 0:
        raise DimensionError("mean_all: empty tensor")
    return scale(sum_all(a), 1.0 / n)


def elementwise_activation(a: Tensor, kind: str) -> Tensor:
    """relu or the exact Gaussian-CDF gelu."""
    x = a.values
    if kind == "relu":
        out = Tensor(np.maximum(x, 0.0))
        _record(out, (a,), lambda g: (g * (x > 0).astype(np.float64),))
        return out
    if kind == "gelu":
        phi = ndtr(x)
        out = Tensor(x * phi)
        _record(out, (a,), lambda g: (
            g * (phi + x * (np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi))),))
        return out
    raise ParameterError(f"unknown activation kind: {kind!r}")


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise (last axis) softmax, max-subtracted."""
    z = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def vjp(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    _record(out, (a,), vjp)
    return out


def log_softmax_rows(a: Tensor) -> Tensor:
    z = a.values - a.values.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = Tensor(z - lse)
    _record(out, (a,),
            lambda g: (g - np.exp(z - lse) * g.sum(axis=-1, keepdims=True),))
    return out


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row (last axis) to unit Euclidean norm."""
    with np.errstate(over="ignore"):  # an overflowing row is rejected below
        norms = np.linalg.norm(a.values, axis=-1, keepdims=True)
    if np.any(norms < EPSILON_NORM):
        raise DegenerateVectorError(
            f"l2_normalize_rows: row norm below {EPSILON_NORM}")
    if not np.isfinite(norms).all():  # an overflowed or NaN row
        raise DegenerateVectorError("l2_normalize_rows: row norm is not finite")
    y = a.values / norms
    out = Tensor(y)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * inner) / norms,)

    _record(out, (a,), vjp)
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to mean 0, variance 1, then apply gain and bias."""
    n = a.shape[-1] if a.shape else 0
    if n == 0:
        raise DimensionError("layer_norm: empty last dimension")
    if gain.shape != (n,) or bias.shape != (n,):
        raise DimensionError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match width {n}")
    xhat = a.values - a.values.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat ** 2).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    out = Tensor(xhat * gain.values + bias.values)
    gv = gain.values
    lead = tuple(range(a.values.ndim - 1))

    def vjp(g):
        dx = None
        if _wants_grad(a):
            gg = g * gv
            dx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                        - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        return (dx, (g * xhat).sum(axis=lead) if _wants_grad(gain) else None,
                g.sum(axis=lead) if _wants_grad(bias) else None)

    _record(out, (a, gain, bias), vjp)
    return out


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def grad_check(f, point, step: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps one Tensor to a scalar Tensor. Returns
    max_i |analytic_i - numeric_i| / (|analytic_i| + |numeric_i| + 1e-12).
    """
    if not (1e-7 <= step <= 1e-4):
        raise ParameterError(f"grad_check step {step} outside [1e-7, 1e-4]")
    point = np.asarray(point, dtype=np.float64)

    with new_tape():
        x = Tensor(point, trainable=True)
        y = f(x)
        if y.values.size != 1:
            raise ContractError(f"grad_check requires scalar f, got shape {y.shape}")
        backward(y)
        analytic = np.zeros_like(point) if x.grad is None else x.grad

    numeric = np.zeros_like(point)
    flat = point.reshape(-1)
    nflat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = f(Tensor(point)).item()
            flat[i] = saved - step
            lo = f(Tensor(point)).item()
            flat[i] = saved
            nflat[i] = (hi - lo) / (2.0 * step)

    err = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-12)
    return float(err.max()) if err.size else 0.0


def random_point(rng: np.random.Generator, shape, min_abs: float = 0.0,
                 scale_: float = 1.0) -> np.ndarray:
    """Sample a normal point; resample coordinates inside the kink band ``min_abs``."""
    x = rng.normal(0.0, scale_, size=shape)
    if min_abs > 0.0:
        while True:
            bad = np.abs(x) < min_abs
            if not bad.any():
                break
            x[bad] = rng.normal(0.0, scale_, size=int(bad.sum()))
    return x
