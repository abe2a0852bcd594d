"""Span tracing around the layer entry points, from the benchmark's own code.

The library imports functions by name (``from .environment import step as
env_step``), so a function is wrapped at every module that binds it, all
under one span name.  Wrappers exist only while ``Tracer.installed()`` is
active; untraced runs execute the library untouched.

Each span records its name, its parent span, start, end and whether it
returned normally, in compact arrays kept in memory until the run ends.  A
span's self time is its duration minus the part covered by its children;
the program is single-threaded, so children never overlap and that part is
the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path

import numpy as np

from ggsfc import evaluation, nn, oracle, policy, topology, training

PASS_SPAN = "bench.pass"

# (module, attribute, span name, wraps the closure a factory returns)
PATCHES = (
    (topology, "generate_pool", "topology.generate_pool", False),
    (policy, "adjacency_matrix", "topology.adjacency_matrix", False),
    (policy, "reset", "environment.reset", False),
    (oracle, "reset", "environment.reset", False),
    (policy, "env_step", "environment.step", False),
    (oracle, "step", "environment.step", False),
    (policy, "valid_actions", "environment.valid_actions", False),
    (oracle, "valid_actions", "environment.valid_actions", False),
    (oracle, "solve_optimal", "oracle.solve_optimal", False),
    (evaluation, "solve_optimal", "oracle.solve_optimal", False),
    (oracle, "label_dataset", "oracle.label_dataset", False),
    (nn, "gru_cell", "nn.gru_cell", False),
    (nn, "gru_cell_backward", "nn.gru_cell_backward", False),
    (nn, "sigmoid", "nn.sigmoid", False),
    (nn, "masked_softmax", "nn.masked_softmax", False),
    (training, "sgd_update", "nn.sgd_update", False),
    (policy, "annotate", "policy.annotate", False),
    (policy, "encode", "policy.encode", False),
    (policy, "encode_backward", "policy.encode_backward", False),
    (policy, "decode_step", "policy.decode_step", False),
    (policy, "decode_step_backward", "policy.decode_step_backward", False),
    (training, "rollout", "policy.rollout", False),
    (evaluation, "rollout", "policy.rollout", False),
    (training, "episode_gradients", "policy.episode_gradients", False),
    (training, "reinforce_update", "training.reinforce_update", False),
    (training, "greedy_failure_ratio", "training.greedy_failure_ratio", False),
    (training, "train_sl", "training.train_sl", False),
    (training, "train_rl", "training.train_rl", False),
    (evaluation, "evaluate_requests", "evaluation.evaluate_requests", False),
    (evaluation, "run_experiment", "evaluation.run_experiment", False),
    (evaluation, "greedy_actor", "evaluation.greedy_actor", True),
    (evaluation, "oracle_actor", "evaluation.oracle_actor", True),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self._stack = [-1]
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        name_id, parent, start, end, ok = self.name_id, self.parent, self.start, self.end, self.ok
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            ok.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok[idx] = 1
                return result
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding site in PATCHES; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, factory in PATCHES:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                if factory:
                    def patched(*args, _make=original, _name=name, **kwargs):
                        return self.wrap(_make(*args, **kwargs), _name)
                else:
                    patched = self.wrap(original, name)
                saved.append((module, attr, original))
                setattr(module, attr, patched)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self):
        """(name ids, parents, durations, self times, ok flags) as numpy arrays."""
        nid = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        par = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        ok = np.frombuffer(self.ok, dtype=np.int8).astype(bool)
        return nid, par, dur, dur - covered, ok

    def save(self, path: Path, count: int) -> None:
        """Write the first `count` spans."""
        nid, par, dur, self_s, ok = (a[:count] for a in self.arrays())
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=nid, parent=par,
            start=np.frombuffer(self.start, dtype=np.float64)[:count], duration=dur,
            self_time=self_s, ok=ok,
        )


def pass_counts(tracer: Tracer) -> tuple[list[dict[str, int]], int]:
    """Span counts by name for each traced pass, in pass order, and the
    number of spans the first pass recorded."""
    nid = np.frombuffer(tracer.name_id, dtype=np.intc)
    roots = np.flatnonzero(nid == tracer.names.index(PASS_SPAN))
    bounds = [*roots.tolist(), len(nid)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        counts = np.bincount(nid[lo + 1:hi], minlength=len(tracer.names))
        out.append({tracer.names[i]: int(c) for i, c in enumerate(counts) if c})
    return out, bounds[1]


def layer_metrics(tracer: Tracer, passes: int, test_requests: int) -> dict[str, float]:
    """Per-layer metrics per pass.  Counts are exact per pass; times are the
    mean over passes.  test_requests is the number of evaluation requests one
    pass poses (0 outside eval)."""
    nid, par, dur, self_s, ok = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    pnid = np.where(par >= 0, nid[np.maximum(par, 0)], -1)

    def mask(name: str, parent: str | None = None) -> np.ndarray:
        m = nid == ids.get(name, -2)
        if parent is not None:
            m &= pnid == ids.get(parent, -2)
        return m

    def calls(name, parent=None):
        return int(mask(name, parent).sum()) // passes

    def self_ms(name, parent=None):
        return float(self_s[mask(name, parent)].sum()) * 1e3 / passes

    def total_ms(name, parent=None):
        return float(dur[mask(name, parent)].sum()) * 1e3 / passes

    def pct_us(name, q):
        d = dur[mask(name)]
        return float(np.percentile(d, q)) * 1e6 if len(d) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {
        "oracle.solve_optimal.calls": calls("oracle.solve_optimal"),
        "oracle.solve_optimal.self_ms": self_ms("oracle.solve_optimal"),
        "oracle.solve_optimal.us_p50": pct_us("oracle.solve_optimal", 50),
        "oracle.solve_optimal.us_p99": pct_us("oracle.solve_optimal", 99),
        "environment.reset.calls": calls("environment.reset"),
        "topology.adjacency_matrix.calls": calls("topology.adjacency_matrix"),
        "policy.decode_step.us_p50": pct_us("policy.decode_step", 50),
        "policy.episode_gradients.calls": calls("policy.episode_gradients"),
        "policy.episode_gradients.total_ms": total_ms("policy.episode_gradients"),
        "policy.rollout.calls": calls("policy.rollout"),
        "policy.rollout.total_ms": total_ms("policy.rollout"),
    }
    for name in ("environment.step", "environment.valid_actions", "policy.annotate",
                 "policy.encode", "policy.decode_step", "policy.encode_backward",
                 "policy.decode_step_backward", "nn.gru_cell", "nn.gru_cell_backward",
                 "nn.sigmoid", "nn.masked_softmax", "nn.sgd_update"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
    for name, parent in (
        ("nn.gru_cell", "policy.encode"),
        ("nn.gru_cell", "policy.decode_step"),
        ("nn.gru_cell_backward", "policy.encode_backward"),
        ("nn.gru_cell_backward", "policy.decode_step_backward"),
        ("nn.sigmoid", "nn.gru_cell"),
        ("nn.sigmoid", "policy.decode_step"),
        ("nn.sigmoid", "policy.decode_step_backward"),
    ):
        by = f"{name}.by_{parent.split('.')[1]}"
        m[f"{by}.calls"] = calls(name, parent)
        m[f"{by}.self_ms"] = self_ms(name, parent)

    rollouts = m["policy.rollout.calls"]
    m["policy.decode_steps_per_rollout"] = ratio(calls("policy.decode_step", "policy.rollout"), rollouts)
    m["policy.encodes_per_rollout"] = ratio(calls("policy.encode", "policy.rollout"), rollouts)

    rl_episodes = calls("policy.rollout", "training.train_rl")
    applied = int((mask("nn.sgd_update", "training.reinforce_update") & ok).sum()) // passes
    m.update({
        "training.train_sl.total_ms": total_ms("training.train_sl"),
        "training.sl.holdout_ms": total_ms("training.greedy_failure_ratio"),
        "training.train_rl.total_ms": total_ms("training.train_rl"),
        "training.rl.rollout_ms": total_ms("policy.rollout", "training.train_rl"),
        "training.rl.update_ms": total_ms("training.reinforce_update", "training.train_rl"),
        "training.rl.update_applied_ratio": ratio(applied, rl_episodes),
        "evaluation.evaluate_requests.total_ms": total_ms("evaluation.evaluate_requests"),
        "evaluation.greedy_actor.total_ms": total_ms("evaluation.greedy_actor"),
        "evaluation.oracle_actor.total_ms": total_ms("evaluation.oracle_actor"),
    })
    eval_solves = calls("oracle.solve_optimal", "evaluation.evaluate_requests") + calls(
        "oracle.solve_optimal", "evaluation.oracle_actor")
    m["evaluation.solves_per_request"] = ratio(eval_solves, test_requests)

    layer_self = float(self_s[nid != ids.get(PASS_SPAN, -2)].sum())
    m["trace.self_coverage_ratio"] = ratio(layer_self, float(dur[mask(PASS_SPAN)].sum()))
    return m
