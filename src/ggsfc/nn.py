"""Dense numerical kernel: parameter sets, layer primitives with exact
analytic backprop, plain SGD, and finite-difference gradient verification.

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
- ``ParamSet`` and ``GradSet`` keep their tensors as views into one flat
  buffer, so ``sgd_update`` is one elementwise step and one finiteness
  check on each side; elementwise arithmetic gives the same bits whatever
  the array's shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

GRU_PARAM_NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")


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

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

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
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# GRU cell (shared across time/nodes; parameters addressed by prefix)

def gru_param_shapes(d_in: int, d_hidden: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for gate in ("z", "r", "h"):
        shapes[f"W_{gate}"] = (d_in, d_hidden)
        shapes[f"U_{gate}"] = (d_hidden, d_hidden)
        shapes[f"b_{gate}"] = (d_hidden,)
    return shapes


def init_gru_params(
    d_in: int, d_hidden: int, rng: np.random.Generator, prefix: str = ""
) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for name, shape in gru_param_shapes(d_in, d_hidden).items():
        if name.startswith("b"):
            out[prefix + name] = np.zeros(shape)
        else:
            out[prefix + name] = uniform_init(shape, rng)
    return out


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
    """Softmax over unmasked entries; masked entries get exactly 0."""
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape:
        raise ValueError(f"logits shape {logits.shape} vs mask shape {mask.shape}")
    if not mask.any():
        raise ValueError("masked_softmax requires at least one unmasked entry")
    shifted = logits - logits[mask].max()
    e = np.where(mask, np.exp(shifted), 0.0)
    return e / e.sum()


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


# ---------------------------------------------------------------------------
# finite-difference verification

@dataclass
class GradCheckReport:
    rel_err: dict[str, float]
    max_rel_err: float
    passed: bool
    tolerance: float

    def __str__(self) -> str:
        worst = max(self.rel_err, key=self.rel_err.get) if self.rel_err else "-"
        status = "PASS" if self.passed else "FAIL"
        return (
            f"grad check {status}: max rel err {self.max_rel_err:.3e} "
            f"(worst tensor {worst}, tolerance {self.tolerance:.1e})"
        )


def finite_diff_check(
    f: Callable[[ParamSet], tuple[float, GradSet]],
    params: ParamSet,
    h: float = 1e-5,
    tolerance: float = 1e-6,
    max_coords_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare f's analytic gradient against central differences.

    f must be deterministic and return (scalar value, analytic GradSet).
    Per tensor, the relative error is ||ga - gn||_2 / max(||ga||_2, ||gn||_2)
    over the probed coordinates (all of them unless max_coords_per_tensor
    caps the probe count, in which case a seeded uniform subset is used).
    """
    value, analytic = f(params)
    if not np.isfinite(value):
        raise ValueError(f"f(params) is not finite: {value}")
    if max_coords_per_tensor is not None and rng is None:
        rng = np.random.default_rng(0)

    rel_err: dict[str, float] = {}
    for name in params.names():
        tensor = params[name]
        flat_idx = np.arange(tensor.size)
        if max_coords_per_tensor is not None and tensor.size > max_coords_per_tensor:
            flat_idx = rng.choice(tensor.size, size=max_coords_per_tensor, replace=False)
            flat_idx.sort()
        ga = analytic[name].reshape(-1)[flat_idx]
        gn = np.empty(len(flat_idx))
        flat = tensor.reshape(-1)  # view; probes mutate in place and restore
        for j, idx in enumerate(flat_idx):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = f(params)
            flat[idx] = orig - h
            down, _ = f(params)
            flat[idx] = orig
            gn[j] = (up - down) / (2.0 * h)
        denom = max(np.linalg.norm(ga), np.linalg.norm(gn))
        rel_err[name] = 0.0 if denom < 1e-12 else float(np.linalg.norm(ga - gn) / denom)

    worst = max(rel_err.values()) if rel_err else 0.0
    return GradCheckReport(
        rel_err=rel_err, max_rel_err=worst, passed=worst <= tolerance, tolerance=tolerance
    )


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(params: ParamSet, metadata: dict, path: str | Path) -> None:
    """JSON checkpoint: flat float64 arrays with shapes plus metadata.

    JSON floats round-trip float64 exactly (shortest-repr), so a load gives
    bit-identical parameters; no timestamps, so same inputs give the same
    bytes.
    """
    doc = {
        "metadata": metadata,
        "tensors": {
            name: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
            for name, v in params.items()
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> tuple[ParamSet, dict]:
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc["metadata"], dict) or not isinstance(doc["tensors"], dict):
            raise TypeError("metadata and tensors must be JSON objects")
        tensors = {
            name: np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
            for name, rec in doc["tensors"].items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from exc
    return ParamSet(tensors), doc["metadata"]
