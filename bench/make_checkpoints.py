"""Regenerate the benchmark's fixed SL and RL checkpoints.

Uses the release gate's pinned recipe: fixture dataset of 2000 requests
plus a 500-request holdout drawn from seed 100, init seed 7, SL seed 11 for
up to 10 epochs stopping at holdout failure ratio 0.01, then REINFORCE on
the fixture from that checkpoint with seed 10, alpha 1e-5, lambda 0, up to
5000 episodes stopping at rolling success 0.95.  Prints the sha256 of each
file; bench/run.py pins those digests and refuses checkpoints that differ.

    python3 bench/make_checkpoints.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from ggsfc import oracle, training  # noqa: E402
from ggsfc.environment import generate_requests  # noqa: E402
from ggsfc.policy import PolicyConfig, init_policy_params, save_policy  # noqa: E402
from ggsfc.topology import internet2_fixture  # noqa: E402

OUT = HERE / "checkpoints"


def main() -> int:
    fx = internet2_fixture()
    rng = np.random.default_rng(100)
    ds = oracle.label_dataset(fx, generate_requests(fx, 2000, (1, 4), rng))
    holdout = oracle.label_dataset(fx, generate_requests(fx, 500, (1, 4), rng))
    cfg = PolicyConfig()
    hp_sl = training.HyperParams(alpha_sl=0.001, sl_epochs=10, seed=11)
    sl, sl_hist = training.train_sl(
        init_policy_params(cfg, seed=7), cfg, fx, ds, hp_sl,
        holdout=holdout, stop_failure_ratio=0.01,
    )
    hp_rl = training.HyperParams(alpha_rl=1e-5, lam=0.0, episodes=5000, seed=10)
    rl, rl_hist = training.train_rl(sl.copy(), fx, hp_rl, cfg, stop_success_rate=0.95)
    OUT.mkdir(exist_ok=True)
    save_policy(sl, cfg, OUT / "sl.ckpt", seed=hp_sl.seed, training_stage="sl")
    save_policy(rl, cfg, OUT / "rl.ckpt", seed=hp_rl.seed, training_stage="rl")
    print(f"SL: {len(sl_hist)} epochs, holdout success {sl_hist[-1].success_rate:.4f}")
    print(f"RL: {len(rl_hist)} episodes, rolling success {rl_hist[-1].success_rate:.4f}")
    for name in ("sl.ckpt", "rl.ckpt"):
        print(f"{hashlib.sha256((OUT / name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
