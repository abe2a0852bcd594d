"""Dense numerical kernel: parameter sets, layer primitives with exact
analytic backprop, and plain SGD.

Everything is float64.  Forward ops return (output, cache); the matching
backward op consumes the cache and returns exact gradients.  The model
sizes here are tiny, so clarity and verifiability win over speed, except
on the forward hot path, where speed is bought only with bit-identical
results:

- The GRU forward is fused.  ``fuse_gru`` concatenates the gate matrices
  into ``[W_z|W_r|W_h]`` and ``[U_z|U_r]``; one product with each replaces
  five, and the gates are sliced back out.  Each output element is still
  the same dot product summed in the same order, so the bits equal those of
  the separate products.
- The GRU backward is not fused.  ``dx = da_h W_h^T + da_z W_z^T +
  da_r W_r^T`` keeps its three products and their order: one product over
  the concatenated gates would sum all 3H terms in one pass, a different
  summation order, and so different bits in every trained parameter.
- Stacking keeps bits only along a leading axis.  numpy runs an
  ``(S, n, h) @ (h, k)`` stack as one BLAS product per 2-D slice, so each
  slice gets the bits of the 2-D product on its own; likewise a
  ``(B, 1, d) @ W`` stack gives each row the bits of the 1-D product
  ``x @ W``.  A ``(B, d) @ W`` product does not: BLAS computes the rows of
  a matrix product differently from a vector product, and 300 of 300 rows
  of a 42 -> 96 product differed on this build.  Parameter gradients of a stack are per-slice products
  (``swapaxes(x, -1, -2) @ da``, ``da.sum(axis=-2)``), which callers add one
  slice at a time in the order the unstacked code did.
- The same holds for the other stacks a lockstep walk makes: each slice of
  ``(L, n, H) @ v`` with a 1-D ``v`` is the 2-D ``(n, H) @ v`` product,
  each slice of ``(T, n, n) @ (T, n, H)`` is the ``a @ h`` of its own
  adjacency, and each row of a batched ``masked_softmax`` is the 1-D call.
  Gather after the product, never before: ``(s @ w)[rows, nodes]`` keeps
  the bits of each row's own product, while ``s[rows, nodes] @ w`` is one
  ``(L, H) @ w`` product over other operands, and it changed the bits in
  1239 of 2000 random trials on this build.
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

    def add(self, name: str, value: np.ndarray) -> None:
        slot = self._tensors[name]
        if np.shape(value) != slot.shape:
            raise ValueError(
                f"gradient for {name!r} has shape {np.shape(value)}, expected {slot.shape}"
            )
        slot += value

    def add_all(self, grads: Mapping[str, np.ndarray]) -> None:
        for name, value in grads.items():
            self.add(name, value)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self._flat).all())


def uniform_init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform in [-s, s] with s = 1/sqrt(fan-in); fan-in is the first axis."""
    s = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-s, s, size=shape)


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
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= 0) / (1.0 + e)


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
    docstring), plus the parameter set and prefix the backward reads.

    The fused arrays are copies: build them again after the parameters
    change, e.g. once per episode.
    """

    W_x: np.ndarray   # [W_z | W_r | W_h]
    U_zr: np.ndarray  # [U_z | U_r]
    b_zr: np.ndarray  # [b_z | b_r]
    U_h: np.ndarray
    b_h: np.ndarray
    params: Mapping[str, np.ndarray]
    prefix: str


def fuse_gru(params: Mapping[str, np.ndarray], prefix: str = "") -> GruWeights:
    p = lambda name: params[prefix + name]
    return GruWeights(
        W_x=np.concatenate([p("W_z"), p("W_r"), p("W_h")], axis=1),
        U_zr=np.concatenate([p("U_z"), p("U_r")], axis=1),
        b_zr=np.concatenate([p("b_z"), p("b_r")]),
        U_h=p("U_h"),
        b_h=p("b_h"),
        params=params,
        prefix=prefix,
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
    xw = x @ w.W_x
    zr = sigmoid(xw[..., : 2 * d] + h_prev @ w.U_zr + w.b_zr)
    z = zr[..., :d]
    r = zr[..., d:]
    rh = r * h_prev
    hbar = np.tanh(xw[..., 2 * d :] + rh @ w.U_h + w.b_h)
    h_new = (1.0 - z) * h_prev + z * hbar
    cache = (x, h_prev, z, r, rh, hbar, w.params, w.prefix)
    return h_new, cache


def gru_cell_backward(
    grad_h_new: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Returns (grad_x, grad_h_prev, param gradients keyed with the prefix).

    x may be 1-D, a 2-D batch, or an (S, n, d) stack of batches; a stack
    gets one parameter gradient per slice, stacked along the first axis.
    """
    x, h_prev, z, r, rh, hbar, params, prefix = cache
    p = lambda name: params[prefix + name]

    dz = grad_h_new * (hbar - h_prev)
    dhbar = grad_h_new * z
    dh_prev = grad_h_new * (1.0 - z)

    da_h = dhbar * (1.0 - hbar * hbar)
    drh = da_h @ p("U_h").T
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r

    da_z = dz * z * (1.0 - z)
    da_r = dr * r * (1.0 - r)

    dx = da_h @ p("W_h").T + da_z @ p("W_z").T + da_r @ p("W_r").T
    dh_prev = dh_prev + da_z @ p("U_z").T + da_r @ p("U_r").T

    if x.ndim == 1:
        grads = {
            prefix + "W_z": np.outer(x, da_z),
            prefix + "U_z": np.outer(h_prev, da_z),
            prefix + "b_z": da_z,
            prefix + "W_r": np.outer(x, da_r),
            prefix + "U_r": np.outer(h_prev, da_r),
            prefix + "b_r": da_r,
            prefix + "W_h": np.outer(x, da_h),
            prefix + "U_h": np.outer(rh, da_h),
            prefix + "b_h": da_h,
        }
    else:
        # one gradient per 2-D slice of a stack (see the module docstring)
        xt = np.swapaxes(x, -1, -2)
        ht = np.swapaxes(h_prev, -1, -2)
        grads = {
            prefix + "W_z": xt @ da_z,
            prefix + "U_z": ht @ da_z,
            prefix + "b_z": da_z.sum(axis=-2),
            prefix + "W_r": xt @ da_r,
            prefix + "U_r": ht @ da_r,
            prefix + "b_r": da_r.sum(axis=-2),
            prefix + "W_h": xt @ da_h,
            prefix + "U_h": np.swapaxes(rh, -1, -2) @ da_h,
            prefix + "b_h": da_h.sum(axis=-2),
        }
    return dx, dh_prev, grads


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
    shifted = logits - logits.max(axis=-1, keepdims=True, where=mask, initial=-np.inf)
    e = np.where(mask, np.exp(shifted), 0.0)
    total = e.sum(axis=-1, keepdims=True)
    # a row with an unmasked entry sums exp(0) = 1 at its max (or a NaN)
    if not total.all():
        raise ValueError("masked_softmax requires at least one unmasked entry")
    return e / total


def log_prob_grad(probs: np.ndarray, index: int) -> np.ndarray:
    """Gradient of log(probs[index]) w.r.t. the logits of masked_softmax.

    d log p_i / d logit_j = delta_ij - p_j; masked entries have p_j = 0 and
    therefore zero gradient automatically.
    """
    if probs[index] <= 0.0:
        raise ValueError(f"index {index} has zero probability (masked?)")
    grad = -probs.copy()
    grad[index] += 1.0
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
