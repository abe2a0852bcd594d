"""Golden traces: frozen episode bits for a fixed parameter set and request set.

The policy's greedy and epsilon-greedy walks, every step's log-prob (as
``float.hex``) and the sha256 of the episode-gradient bytes along solver
labels (coefficients -1) and along each epsilon-greedy walk (coefficients
``linspace(-1, 1, T)``, the REINFORCE path) are pinned in
``golden_trace.json``.  A refactor of the episode core
(environment stepping, decoding, replay) must leave all of them unchanged.

The bits depend on the numpy/BLAS build as well as on the code.  To write
the file afresh, run ``PYTHONPATH=src python tests/test_golden_trace.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from ggsfc.environment import SfcRequest, generate_requests
from ggsfc.oracle import solve_optimal
from ggsfc.policy import (
    PolicyConfig,
    episode_gradients,
    init_policy_params,
    rollout,
    teacher_force,
)
from ggsfc.topology import internet2_fixture

GOLDEN = Path(__file__).with_name("golden_trace.json")
PARAM_SEED = 3
REQUEST_SEED = 2020
REQUEST_COUNT = 6
EPSILON = 0.3
LABELED = 3  # the first requests also get a gradient digest along their label


def _actions(actions) -> list[list]:
    return [[int(a.next_node), bool(a.process)] for a in actions]


def _walk(trace) -> dict:
    return {
        "actions": _actions(s.action for s in trace.steps),
        "log_probs": [float.hex(s.log_prob) for s in trace.steps],
        "success": trace.success,
        "total_delay": trace.total_delay,
    }


def _grad_sha256(grads) -> str:
    h = hashlib.sha256()
    for name, value in sorted(grads.items()):
        h.update(name.encode())
        h.update(value.tobytes())
    return h.hexdigest()


def snapshot(requests: list[SfcRequest]) -> dict:
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=PARAM_SEED)
    episodes = []
    for i, req in enumerate(requests):
        greedy = rollout(params, cfg, t, req, mode="greedy")
        eps = rollout(params, cfg, t, req, mode="epsilon_greedy",
                      rng=np.random.default_rng([REQUEST_SEED, i]), epsilon=EPSILON)
        entry = {
            "request": [req.source, req.destination, list(req.chain)],
            "greedy": _walk(greedy),
            "epsilon_greedy": _walk(eps),
        }
        grads = episode_gradients(eps, np.linspace(-1.0, 1.0, len(eps.steps)))
        entry["epsilon_greedy"]["grad_sha256"] = _grad_sha256(grads)
        if i < LABELED:
            label = solve_optimal(t, req).actions
            forced = teacher_force(params, cfg, t, req, label)
            grads = episode_gradients(forced, -np.ones(len(label)))
            entry["label"] = {
                "actions": _actions(label),
                "log_probs": [float.hex(s.log_prob) for s in forced.steps],
                "grad_sha256": _grad_sha256(grads),
            }
        episodes.append(entry)
    return {"param_seed": PARAM_SEED, "epsilon": EPSILON, "episodes": episodes}


def _frozen_requests(doc: dict) -> list[SfcRequest]:
    return [SfcRequest(src, dst, tuple(chain)) for src, dst, chain in
            (e["request"] for e in doc["episodes"])]


def test_episode_bits_match_the_golden_file():
    doc = json.loads(GOLDEN.read_text())
    assert snapshot(_frozen_requests(doc)) == doc


def test_golden_file_exercises_processing_and_success():
    doc = json.loads(GOLDEN.read_text())
    walks = [e[mode] for e in doc["episodes"] for mode in ("greedy", "epsilon_greedy")]
    assert any(p for w in walks for _, p in w["actions"])
    assert any(w["success"] for w in walks) and not all(w["success"] for w in walks)
    assert len({len(e["request"][2]) for e in doc["episodes"]}) > 1
    assert all(len(e["label"]["log_probs"]) == len(e["label"]["actions"])
               for e in doc["episodes"][:LABELED])


if __name__ == "__main__":
    reqs = generate_requests(internet2_fixture(), REQUEST_COUNT, (1, 4),
                             np.random.default_rng(REQUEST_SEED))
    GOLDEN.write_text(json.dumps(snapshot(reqs), indent=1) + "\n")
