"""Dense numerical kernel: parameter sets, layer primitives with exact
analytic backprop, and plain SGD.

Everything is float64.  Forward ops return (output, cache); the matching
backward op consumes the cache and returns exact gradients.  The model
sizes here are tiny, so clarity and verifiability win over speed, except
on the hot paths, where speed is bought only with bit-identical results:

- The GRU forward is fused.  ``fuse_gru`` concatenates the z and r gate
  matrices into ``[W_z|W_r]`` and ``[U_z|U_r]``, so the forward takes four
  products: ``x [W_z|W_r]``, ``h [U_z|U_r]``, ``x W_h`` and ``(r*h) U_h``,
  and slices z and r back out.  Each output element is still the same dot
  product summed in the same order, so the bits equal those of the separate
  products, and of the column slices of one ``x [W_z|W_r|W_h]`` product.
- A forward kernel writes only into arrays it allocated in the same call,
  with the same ufuncs on the same operands in the same order as the
  out-of-place formula, so the bytes hold.  It never writes an argument or
  an array it caches: ``h_new`` is its own array, and a view the caller
  passes, such as one segment's ``enc_scores``, is only read.
- The GRU backward keeps the per-gate products: ``dx = da_h W_h^T + da_z
  W_z^T + da_r W_r^T`` keeps its three, in order, where one product over
  the concatenated gates would sum all 3H terms in one pass and change
  every trained bit.  The gates' parameter gradients share one product
  per input, ``x^T [da_z|da_r|da_h]``, whose column slices keep each bit:
  per 2-D batch for the encoder (``gru_param_grads``), one ``outer_sum``
  over an episode's steps for the decoder (``gru_step_grads``).
- Stacking keeps bits only along a leading axis.  numpy runs an
  ``(S, n, h) @ (h, k)`` stack as one BLAS product per 2-D slice, so each
  slice gets the bits of the 2-D product on its own; likewise a
  ``(B, 1, d) @ W`` stack gives each row the bits of the 1-D product
  ``x @ W``, and an elementwise ``x[:, :, None] * da[:, None, :]`` the bits
  of each row's ``np.outer``.  A ``(B, d) @ W`` product does not: BLAS
  computes the rows of a matrix product differently from a vector product,
  and 300 of 300 rows of a 42 -> 96 product differed on this build.
- The same holds for the other stacks a lockstep walk makes: each slice of
  ``(L, n, H) @ v`` with a 1-D ``v`` is the 2-D ``(n, H) @ v`` product,
  each slice of ``(T, n, n) @ (T, n, H)`` is the ``a @ h`` of its own
  adjacency, and each row of a batched ``masked_softmax`` is the 1-D call.
  Gather after the product, never before: ``(s @ w)[rows, nodes]`` keeps
  the bits of each row's own product, while ``s[rows, nodes] @ w`` is one
  ``(L, H) @ w`` product over other operands, and it changed the bits in
  1239 of 2000 random trials on this build.
- Sums keep their order.  A parameter's per-step products are added one
  at a time, in step order, the running sum carried from stack to stack
  (``sum_in_order``): numpy's own sum adds a (T,) or (T, 1) stack pairwise.
  An outer-product gradient over T steps is one ``einsum("ti,tj->ij")``
  (``outer_sum``): over rows that follow one another in memory it adds each
  step's products to each element in step order, from 0.0, so it has the
  bytes of the per-step ``np.outer`` loop, and each column block the bytes
  of its own einsum, where ``a.T @ b`` (BLAS) does not.  It runs with
  einsum's default ``optimize=False``, since True hands it to BLAS.  einsum
  may reorder the steps of a column-major or reversed input, and it sums a
  1x1 result, a dot product, with several accumulators, so those are
  refused.  einsum raises no floating-point warning where the elementwise
  product did; the values are the same, and ``sgd_update`` still refuses
  non-finite gradients.
- ``ParamSet`` and ``GradSet`` keep their tensors as views into one flat
  buffer, so ``sgd_update`` is one elementwise step and one finiteness
  check on each side; elementwise arithmetic gives the same bits whatever
  the array's shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

class NonFiniteGradientError(ValueError):
    """A gradient contained NaN or inf; the update must be rejected."""


_Layout = tuple[tuple[str, tuple[int, ...]], ...]  # (name, shape) in storage order


def _views(flat: np.ndarray, layout: _Layout) -> dict[str, np.ndarray]:
    """Each tensor of the layout as a view into its stretch of flat."""
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


class ParamSet:
    """Named float64 tensors with shapes frozen at construction.

    The tensors are views into one flat buffer, in insertion order, so an
    SGD step is one elementwise operation over the buffer.
    """

    def __init__(self, tensors: Mapping[str, np.ndarray]):
        arrays = [(name, np.asarray(value, dtype=np.float64)) for name, value in tensors.items()]
        self._layout: _Layout = tuple((name, arr.shape) for name, arr in arrays)
        self._flat = (np.concatenate([arr.reshape(-1) for _, arr in arrays]) if arrays
                      else np.empty(0))
        self._tensors = _views(self._flat, self._layout)
        self._check_finite()

    @classmethod
    def _from_flat(cls, flat: np.ndarray, layout: _Layout) -> "ParamSet":
        """A ParamSet whose tensors are views into flat itself."""
        params = cls.__new__(cls)
        params._layout, params._flat, params._tensors = layout, flat, _views(flat, layout)
        params._check_finite()
        return params

    def _check_finite(self) -> None:
        if not np.isfinite(self._flat).all():
            name = next(n for n, v in self._tensors.items() if not np.isfinite(v).all())
            raise ValueError(f"parameter {name!r} has non-finite entries")

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def names(self) -> tuple[str, ...]:
        return tuple(self._tensors)

    def items(self):
        return self._tensors.items()

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return dict(self._layout)

    def copy(self) -> "ParamSet":
        return ParamSet._from_flat(self._flat.copy(), self._layout)


class GradSet:
    """Gradient accumulator shape-matched to a ParamSet, with the same flat
    layout."""

    def __init__(self, params: ParamSet):
        self._flat = np.zeros_like(params._flat)
        self._layout = params._layout
        self._tensors = _views(self._flat, self._layout)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def add_stack(self, name: str, stack: np.ndarray) -> None:
        """Add a stack's items along its leading axis, in order.  The stack
        is taken over: its first item is overwritten (see sum_in_order)."""
        slot = self._tensors[name]
        if stack.shape[1:] != slot.shape:
            raise ValueError(f"gradient stack for {name!r} has shape {stack.shape}, "
                             f"expected items of {slot.shape}")
        slot[...] = sum_in_order(slot, stack)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self._flat).all())


def uniform_init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform in [-s, s] with s = 1/sqrt(fan-in); fan-in is the first axis."""
    s = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-s, s, size=shape)


def sum_in_order(start: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """start + stack[0] + stack[1] + ..., one item at a time: numpy reduces
    the leading axis item by item unless each item has one element, which
    it sums pairwise.  start is added into stack[0], in place."""
    if stack.size == len(stack):
        return np.add.accumulate(np.concatenate([start[None], stack]), axis=0)[-1]
    stack[0] += start
    return np.add.reduce(stack, axis=0)


def outer_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.0 + outer(a[0], b[0]) + outer(a[1], b[1]) + ..., one step at a time,
    as one einsum (see the module docstring), into out if given.  The rows
    of a and b must follow one another in memory, as in a row-major array
    or its column slice, and the result may not be 1x1."""
    if a.shape[1] * b.shape[1] == 1:
        raise ValueError("a 1x1 outer sum is a dot product, which einsum does not add in order")
    for x in (a, b):
        if not 0 < x.strides[1] * x.shape[1] <= x.strides[0]:
            raise ValueError(f"rows with strides {x.strides} do not follow one another")
    return np.einsum("ti,tj->ij", a, b, out=out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), stable at large |x| and without branches.

    With e = exp(-|x|) this is 1/(1+e) for x >= 0 and e/(1+e) below: the
    same operations as splitting by sign, so the same bits.  min(x, -x) is
    -|x| but passes a NaN through with its sign bit, as exp(x) did.

    The numerator is max(e, x >= 0) rather than where(x >= 0, 1, e), which
    costs a branch per element: maximum returns one operand exactly, e <= 1
    where x >= 0 gives 1 there, e >= 0 everywhere gives e elsewhere, and a
    NaN e is passed through.  So the bytes are those of the where.
    """
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    np.add(1.0, e, out=e)
    return np.divide(out, e, out=out)


# ---------------------------------------------------------------------------
# GRU cell (shared across time/nodes; parameters addressed by prefix)

def gru_param_shapes(d_in: int, d_hidden: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for gate in ("z", "r", "h"):
        shapes[f"W_{gate}"] = (d_in, d_hidden)
        shapes[f"U_{gate}"] = (d_hidden, d_hidden)
        shapes[f"b_{gate}"] = (d_hidden,)
    return shapes


@dataclass(frozen=True)
class GruWeights:
    """One GRU's gate matrices fused for the forward pass (see the module
    docstring); the backward reads each gate's columns.

    The fused arrays are copies: build them again after the parameters
    change, e.g. once per episode.
    """

    W_zr: np.ndarray  # [W_z | W_r]
    U_zr: np.ndarray  # [U_z | U_r]
    b_zr: np.ndarray  # [b_z | b_r]
    W_h: np.ndarray
    U_h: np.ndarray
    b_h: np.ndarray


def fuse_gru(params: Mapping[str, np.ndarray], prefix: str = "") -> GruWeights:
    p = lambda name: params[prefix + name]
    return GruWeights(
        W_zr=np.concatenate([p("W_z"), p("W_r")], axis=1),
        U_zr=np.concatenate([p("U_z"), p("U_r")], axis=1),
        b_zr=np.concatenate([p("b_z"), p("b_r")]),
        W_h=p("W_h"),
        U_h=p("U_h"),
        b_h=p("b_h"),
    )


def gru_cell(
    x: np.ndarray, h_prev: np.ndarray, w: GruWeights
) -> tuple[np.ndarray, tuple]:
    """Standard GRU update; x and h_prev may be 1-D, batched 2-D, or an
    (S, n, d) stack of batches.

    z = sigmoid(x W_z + h U_z + b_z)
    r = sigmoid(x W_r + h U_r + b_r)
    hbar = tanh(x W_h + (r*h) U_h + b_h)
    h_new = (1 - z) * h + z * hbar
    """
    d = w.U_h.shape[0]
    a_zr = x @ w.W_zr
    a_zr += h_prev @ w.U_zr
    a_zr += w.b_zr
    zr = sigmoid(a_zr)
    z = zr[..., :d]
    r = zr[..., d:]
    rh = r * h_prev
    hbar = x @ w.W_h
    hbar += rh @ w.U_h
    hbar += w.b_h
    np.tanh(hbar, out=hbar)
    h_new = np.subtract(1.0, z)
    h_new *= h_prev
    h_new += z * hbar
    cache = (x, h_prev, z, r, rh, hbar, w)
    return h_new, cache


def gru_cell_backward(
    grad_h_new: np.ndarray, cache: tuple, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(grad_x, or None without input_grad; grad_h_prev; gate gradients
    [da_z|da_r|da_h]) of a 1-D cell, a 2-D batch or an (S, n, d) stack."""
    x, h_prev, z, r, rh, hbar, w = cache
    d = z.shape[-1]
    dz = grad_h_new * (hbar - h_prev)
    omz = 1.0 - z
    dh_prev = grad_h_new * omz
    da_h = grad_h_new * z * (1.0 - hbar * hbar)
    drh = da_h @ w.U_h.T
    dh_prev += drh * r
    da_z = dz * z * omz
    da_r = drh * h_prev * r * (1.0 - r)
    dh_prev += da_z @ w.U_zr[:, :d].T
    dh_prev += da_r @ w.U_zr[:, d:].T
    da = np.concatenate([da_z, da_r, da_h], axis=-1)
    return gru_input_grad(da, w) if input_grad else None, dh_prev, da


def gru_input_grad(da: np.ndarray, w: GruWeights) -> np.ndarray:
    """grad_x from the gates; an (L, 1, 3H) stack keeps each 1-D cell's bits."""
    d = w.U_h.shape[0]
    return (da[..., 2 * d :] @ w.W_h.T + da[..., :d] @ w.W_zr[:, :d].T
            + da[..., d : 2 * d] @ w.W_zr[:, d:].T)


def gru_param_grads(x: np.ndarray, h_prev: np.ndarray, rh: np.ndarray,
                    da: np.ndarray) -> tuple[np.ndarray, ...]:
    """(dW, dU_zr, dU_h, db) of each 2-D batch of a stack, gates side by
    side: x, h_prev, r*h and da are (..., n, d), and each (n, d) batch gets
    its own 2-D products and column sums, with the bits it gets alone."""
    d = da.shape[-1] // 3
    return (np.swapaxes(x, -1, -2) @ da, np.swapaxes(h_prev, -1, -2) @ da[..., : 2 * d],
            np.swapaxes(rh, -1, -2) @ da[..., 2 * d :], da.sum(axis=-2))


def gru_step_grads(x: np.ndarray, h_prev: np.ndarray, rh: np.ndarray,
                   da: np.ndarray) -> dict[str, np.ndarray]:
    """The named parameter gradients of T 1-D cells, from (T, d) stacks of
    their x, h_prev, r*h and gates da, each summed over the steps from 0.0
    in step order."""
    d = da.shape[-1] // 3
    return gru_grads_by_name(outer_sum(x, da), outer_sum(h_prev, da[:, : 2 * d]),
                             outer_sum(rh, da[:, 2 * d :]),
                             sum_in_order(np.zeros(3 * d), da.copy()))


def gru_grads_by_name(w, u_zr, u_h, b) -> dict[str, np.ndarray]:
    """The gate slices of fused (dW, dU_zr, dU_h, db) by parameter name."""
    d, grads = u_h.shape[-1], {}
    for k, gate in enumerate("zrh"):
        c = slice(k * d, (k + 1) * d)
        grads.update({f"W_{gate}": w[..., c], f"b_{gate}": b[..., c],
                      f"U_{gate}": u_h if gate == "h" else u_zr[..., c]})
    return grads


# ---------------------------------------------------------------------------
# masked softmax

def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the unmasked entries of the last axis; masked entries
    get exactly 0.  Each row of an (L, n) batch gets the bits of the 1-D
    call on it: the max is exact, and each row's sum runs over that row
    alone, in the same order."""
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape:
        raise ValueError(f"logits shape {logits.shape} vs mask shape {mask.shape}")
    e = logits - logits.max(axis=-1, keepdims=True, where=mask, initial=-np.inf)
    # exp(-inf) is exactly 0, and a masked logit never reaches exp to overflow
    np.copyto(e, -np.inf, where=~mask)
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    # a row with an unmasked entry sums exp(0) = 1 at its max (or a NaN)
    if not total.all():
        raise ValueError("masked_softmax requires at least one unmasked entry")
    e /= total
    return e


def log_prob_grad(probs: np.ndarray, index) -> np.ndarray:
    """Gradient of log(probs[index]) w.r.t. the logits of masked_softmax,
    one index per row of an (L, n) batch: d log p_i / d logit_j = delta_ij
    - p_j, so masked entries, with p_j = 0, get zero gradient."""
    at = (np.arange(len(probs)), index) if probs.ndim == 2 else index
    if np.any(probs[at] <= 0.0):
        raise ValueError(f"index {index} has zero probability (masked?)")
    grad = -probs
    grad[at] += 1.0
    return grad


# ---------------------------------------------------------------------------
# updates

def sgd_update(params: ParamSet, grads: GradSet, alpha: float) -> ParamSet:
    """One plain SGD ascent step: theta' = theta + alpha * grad.

    Callers ascend an objective; to descend a loss, pass the gradient of
    its negation.  Non-finite gradients reject the whole update (raise)
    rather than being clipped; with sparse rewards at the 1e4 scale, silent
    clipping would hide defects.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not grads.is_finite():
        raise NonFiniteGradientError("gradient has non-finite entries; update rejected")
    if grads._layout != params._layout:
        raise ValueError("gradient layout does not match the parameters")
    # one pass over the flat buffer; each element gets the same
    # value + alpha * g as a per-tensor update would
    return ParamSet._from_flat(params._flat + alpha * grads._flat, params._layout)
