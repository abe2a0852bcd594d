"""Command-line entry point.

Subcommands wire the library end to end: fixture/pool generation, dataset
labeling, SL and RL training, the three-test evaluation, single-request
solving, and the full desk-scale experiment pipeline.  Every run is
determined by its flags plus seed, and the output directory of every
finished run gets the resolved configuration echoed into config.json.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import environment, evaluation, experiment, oracle, topology, training
from .policy import PolicyConfig, init_policy_params, load_policy, save_policy
from .topology import TopologyError


def _load_base_topology(args) -> topology.Topology:
    if args.fixture:
        return topology.internet2_fixture()
    return topology.load_topology_file(args.topology)


def _topology_desc(args) -> str:
    return "fixture" if args.fixture else str(args.topology)


def _load_training_topologies(args) -> tuple[topology.Topology | topology.TopologyPool,
                                             topology.Topology]:
    """What a train verb trains on (--fixture, --topology or --pool) and the
    topology whose VNF type count the policy must match."""
    if args.pool:
        pool = topology.load_pool(args.pool)
        return pool, pool.base
    t = _load_base_topology(args)
    return t, t


def _prepare_out_file(path_str: str) -> Path:
    out = Path(path_str)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# topo

def cmd_topo_fixture(args) -> int:
    t = topology.internet2_fixture()
    out = Path(args.out)
    if out.is_dir() or str(args.out).endswith("/"):
        out.mkdir(parents=True, exist_ok=True)
        out = out / "internet2.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    topology.save_topology_file(t, out)
    print(f"wrote {out}: {t.num_nodes} nodes, {len(t.edges)} edges, "
          f"{len(t.instances)} instances, K={t.vnf_type_count}")
    return 0


def cmd_topo_mutate(args) -> int:
    t = _load_base_topology(args)
    rng = np.random.default_rng(args.seed)
    mutate = topology.mutate_cs1 if args.strategy == "cs1" else topology.mutate_cs2
    m = mutate(t, rng)
    topology.save_topology_file(m, _prepare_out_file(args.out))
    print(f"wrote {args.out}: {m.num_nodes} nodes, {len(m.edges)} edges, "
          f"{len(m.instances)} instances, connected")
    return 0


def cmd_topo_pool(args) -> int:
    t = _load_base_topology(args)
    pool = topology.generate_pool(t, args.strategy, pool_size=args.count, seed=args.seed)
    topology.save_pool(pool, args.out)
    sizes = [v.num_nodes for v in pool.variants]
    print(f"wrote {args.out}: {len(pool.variants)} {args.strategy} variants "
          f"({min(sizes)}-{max(sizes)} nodes), base {t.num_nodes} nodes")
    return 0


# ---------------------------------------------------------------------------
# dataset

def cmd_dataset(args) -> int:
    rng = np.random.default_rng(args.seed)
    chain_len_range = (args.chain_min, args.chain_max)
    if args.pool:
        pool = topology.load_pool(args.pool)
        pairs = environment.generate_pool_requests(pool.variants, args.count,
                                                   chain_len_range, rng)
        ds = oracle.label_dataset(pool, pairs)
    else:
        t = _load_base_topology(args)
        requests = environment.generate_requests(t, args.count, chain_len_range, rng)
        ds = oracle.label_dataset(t, requests)
    oracle.save_dataset_file(ds, _prepare_out_file(args.out))
    print(f"wrote {args.out}: {len(ds)} examples "
          f"(dropped {ds.dropped_infeasible} infeasible, "
          f"{ds.dropped_over_budget} over budget)")
    return 0


# ---------------------------------------------------------------------------
# train

# Flags a --config file may supply, by train verb and argparse dest.  main()
# installs the file's values as the verb's defaults and parses again, so the
# precedence is: explicit flag > config file > library default.
CONFIG_KEYS = {
    "sl": frozenset({"dataset", "holdout", "epochs", "alpha_sl", "stop_failure_ratio",
                     "hidden_dim", "t_prop", "seed", "out"}),
    "rl": frozenset({"init", "lam", "episodes", "alpha_rl", "gamma", "epsilon",
                     "stop_success_rate", "hidden_dim", "t_prop", "seed", "out"}),
}


def _load_config(path: str, verb: str) -> dict:
    """A --config file's values, as strings for the flags' own types to parse;
    a null value is left out, so its flag keeps the library default."""
    try:
        config = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(config) - CONFIG_KEYS[verb]
    if unknown:
        raise ValueError(f"unknown config keys for train {verb}: {sorted(unknown)}")
    return {key: str(value) for key, value in config.items() if value is not None}


def cmd_train_sl(args) -> int:
    if not args.dataset or not args.out:
        raise ValueError("sl training needs --dataset and --out (flag or config)")
    topos, base = _load_training_topologies(args)
    ds = oracle.load_dataset_file(args.dataset)
    oracle.check_labels(ds, topos, args.dataset)
    holdout = None
    if args.holdout:
        holdout = oracle.load_dataset_file(args.holdout)
        oracle.check_labels(holdout, topos, args.holdout)
    cfg = PolicyConfig(hidden_dim=args.hidden_dim, vnf_type_count=base.vnf_type_count,
                       t_prop=args.t_prop)
    hp = training.HyperParams(alpha_sl=args.alpha_sl, sl_epochs=args.epochs, seed=args.seed)
    params = init_policy_params(cfg, seed=args.seed)

    params, history = training.train_sl(
        params, cfg, topos, ds, hp, holdout=holdout,
        stop_failure_ratio=args.stop_failure_ratio,
        progress=lambda row: print(training.format_history_row("epoch", row)),
    )
    out = Path(args.out)
    experiment.write_config_echo(out, {
        "mode": "sl", "dataset": str(args.dataset), "holdout": args.holdout,
        "topology": None if args.pool else _topology_desc(args), "pool": args.pool,
        "hidden_dim": cfg.hidden_dim, "t_prop": cfg.t_prop, "K": cfg.vnf_type_count,
        "alpha_sl": hp.alpha_sl, "epochs": hp.sl_epochs, "seed": hp.seed,
        "stop_failure_ratio": args.stop_failure_ratio,
    })
    save_policy(params, cfg, out / "sl.ckpt", seed=hp.seed, training_stage="sl")
    training.save_history(history, out / "history.csv", index_name="epoch")
    print(f"wrote {out / 'sl.ckpt'} and history.csv ({len(history)} epochs)")
    return 0


def cmd_train_rl(args) -> int:
    if not args.out:
        raise ValueError("rl training needs --out (flag or config)")
    topos, base = _load_training_topologies(args)
    topo_desc = str(args.pool) if args.pool else _topology_desc(args)

    # the architecture flags asked for explicitly (by flag or config)
    arch = {k: v for k, v in (("hidden_dim", args.hidden_dim), ("t_prop", args.t_prop))
            if v is not None}
    if args.init:
        params, cfg, _ = load_policy(args.init)
        for key, value in arch.items():
            if getattr(cfg, key) != value:
                raise ValueError(f"--{key.replace('_', '-')} {value} differs from "
                                 f"the --init checkpoint's {getattr(cfg, key)}")
    elif args.from_scratch:
        cfg = PolicyConfig(vnf_type_count=base.vnf_type_count, **arch)
        params = init_policy_params(cfg, seed=args.seed)
    else:
        raise ValueError("rl training needs --init CHECKPOINT (or --from-scratch)")

    hp = training.HyperParams(alpha_rl=args.alpha_rl, gamma=args.gamma,
                              epsilon=args.epsilon, lam=args.lam,
                              episodes=args.episodes, seed=args.seed)

    every = max(1, args.episodes // 20)
    def progress(row: training.HistoryRow) -> None:
        if row.index % every == 0 or row.index == args.episodes:
            print(training.format_history_row("episode", row))

    params, history = training.train_rl(
        params, topos, hp, cfg,
        stop_success_rate=args.stop_success_rate, progress=progress,
    )
    out = Path(args.out)
    experiment.write_config_echo(out, {
        "mode": "rl", "init": args.init, "from_scratch": args.from_scratch,
        "topologies": topo_desc, "lam": hp.lam, "alpha_rl": hp.alpha_rl,
        "gamma": hp.gamma, "epsilon": hp.epsilon, "episodes": hp.episodes,
        "stop_success_rate": args.stop_success_rate,
        "seed": hp.seed, "hidden_dim": cfg.hidden_dim, "t_prop": cfg.t_prop,
        "K": cfg.vnf_type_count,
    })
    save_policy(params, cfg, out / "rl.ckpt", seed=hp.seed, training_stage="rl")
    training.save_history(history, out / "history.csv", index_name="episode")
    print(f"wrote {out / 'rl.ckpt'} and history.csv ({len(history)} episodes)")
    return 0


# ---------------------------------------------------------------------------
# eval / solve

def _parse_checkpoint_arg(spec: str) -> tuple[str, str]:
    if "=" in spec:
        label, path = spec.split("=", 1)
        return label, path
    return Path(spec).stem, spec


def cmd_eval(args) -> int:
    fixture = _load_base_topology(args)
    pools = {
        "cs1": topology.load_pool(args.pool_cs1),
        "cs2": topology.load_pool(args.pool_cs2),
    }
    checkpoints = []
    for spec in args.checkpoint:
        label, path = _parse_checkpoint_arg(spec)
        params, cfg, _ = load_policy(path)
        checkpoints.append((label, params, cfg))
    actors = [("oracle", evaluation.oracle_actor())] if args.oracle_row else []
    report = evaluation.run_experiment(
        checkpoints, fixture, pools,
        request_count=args.requests, seed=args.seed,
        chain_len_range=(args.chain_min, args.chain_max), actors=actors,
    )
    out = Path(args.out)
    experiment.write_config_echo(out, {
        "checkpoints": list(args.checkpoint),
        "topology": _topology_desc(args),
        "pool_cs1": str(args.pool_cs1), "pool_cs2": str(args.pool_cs2),
        "requests": args.requests, "seed": args.seed,
        "chain_min": args.chain_min, "chain_max": args.chain_max,
        "oracle_row": args.oracle_row,
    })
    evaluation.save_report(report, out)
    print(evaluation.format_report(report), end="")
    print(f"wrote {out / 'report.csv'} and report.txt")
    return 0


def cmd_solve(args) -> int:
    t = _load_base_topology(args)
    chain = tuple(int(x) for x in args.chain.split(",")) if args.chain else ()
    req = environment.SfcRequest(args.source, args.destination, chain)
    res = oracle.solve_optimal(t, req)
    if not res.feasible:
        print("infeasible")
        return 0
    if res.actions:
        hops = [f"{a.next_node}{'*' if a.process else ''}" for a in res.actions]
        print(f"path: {req.source} -> " + " -> ".join(hops) + "   (* = process)")
    else:
        print(f"path: {req.source} (already at destination, nothing to process)")
    print(f"optimal delay: {res.optimal_delay}")
    return 0


# ---------------------------------------------------------------------------
# exp table1: the whole desk-scale pipeline in one command

def _table1_config(args) -> experiment.Table1Config:
    settings = {f.name: getattr(args, f.name) for f in fields(experiment.Table1Config)}
    settings["rl_seeds"] = tuple(int(p) for p in args.rl_seeds.split(","))
    return experiment.Table1Config(**settings)


def cmd_exp_table1(args) -> int:
    report = experiment.run_table1(_table1_config(args), args.out, progress=print)
    print(evaluation.format_report(report), end="")
    print(f"wrote {Path(args.out) / 'report.csv'} and report.txt")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_topology_source(p: argparse.ArgumentParser, with_pool: bool = False) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fixture", action="store_true",
                   help="use the bundled 12-node topology")
    g.add_argument("--topology", help="path to a topology file")
    if with_pool:
        g.add_argument("--pool", help="path to a pool directory")


def _add_chain_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chain-min", type=int, default=1, help="shortest chain (default 1)")
    p.add_argument("--chain-max", type=int, default=4, help="longest chain (default 4)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggsfc",
        description="Service function chaining: simulate topologies, solve optimal "
                    "paths, train and evaluate a graph-neural routing policy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    hp, pc = training.HyperParams(), PolicyConfig()
    dflt = "default %(default)s"

    topo = sub.add_parser("topo", help="topology files and pools")
    topo_sub = topo.add_subparsers(dest="subcommand", required=True)

    p = topo_sub.add_parser("fixture", help="write the bundled fixture")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_topo_fixture)

    p = topo_sub.add_parser("mutate", help="apply one random change")
    _add_topology_source(p)
    p.add_argument("--strategy", choices=("cs1", "cs2"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_topo_mutate)

    p = topo_sub.add_parser("pool", help="generate a pool of mutated variants")
    _add_topology_source(p)
    p.add_argument("--strategy", choices=("cs1", "cs2"), required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_topo_pool)

    p = sub.add_parser("dataset", help="label requests with optimal paths")
    _add_topology_source(p, with_pool=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_chain_range(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset)

    train = sub.add_parser("train", help="supervised or policy-gradient training")
    train_sub = train.add_subparsers(dest="subcommand", required=True)

    config_help = "JSON file of defaults for these flags"
    p = train_sub.add_parser("sl", help="teacher-forced training on labels")
    _add_topology_source(p, with_pool=True)
    p.add_argument("--config", help=config_help)
    p.add_argument("--dataset")
    p.add_argument("--holdout", help="labeled dataset for per-epoch greedy evaluation")
    p.add_argument("--epochs", type=int, default=hp.sl_epochs, help=dflt)
    p.add_argument("--alpha-sl", type=float, default=hp.alpha_sl, help=dflt)
    p.add_argument("--stop-failure-ratio", type=float)
    p.add_argument("--hidden-dim", type=int, default=pc.hidden_dim, help=dflt)
    p.add_argument("--t-prop", type=int, default=pc.t_prop, help=dflt)
    p.add_argument("--seed", type=int, default=hp.seed, help=dflt)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train_sl, config_parser=p)

    p = train_sub.add_parser("rl", help="REINFORCE fine-tuning")
    _add_topology_source(p, with_pool=True)
    p.add_argument("--config", help=config_help)
    p.add_argument("--init", help="checkpoint to start from (the SL model)")
    p.add_argument("--from-scratch", action="store_true")
    p.add_argument("--lambda", "--lam", dest="lam", type=float, default=hp.lam,
                   help="delay-penalty weight in the reward (default %(default)s)")
    p.add_argument("--episodes", type=int, default=hp.episodes, help=dflt)
    p.add_argument("--alpha-rl", type=float, default=hp.alpha_rl, help=dflt)
    p.add_argument("--gamma", type=float, default=hp.gamma, help=dflt)
    p.add_argument("--epsilon", type=float, default=hp.epsilon, help=dflt)
    p.add_argument("--stop-success-rate", type=float,
                   help="end training once the rolling success rate reaches this")
    arch_help = "default: the --init checkpoint's, else %s"
    p.add_argument("--hidden-dim", type=int, help=arch_help % pc.hidden_dim)
    p.add_argument("--t-prop", type=int, help=arch_help % pc.t_prop)
    p.add_argument("--seed", type=int, default=hp.seed, help=dflt)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train_rl, config_parser=p)

    p = sub.add_parser("eval", help="three-test evaluation of checkpoints")
    _add_topology_source(p)
    p.add_argument("--checkpoint", nargs="+", required=True,
                   help="checkpoint paths, optionally LABEL=PATH")
    p.add_argument("--pool-cs1", required=True, help="structural-mutation test pool")
    p.add_argument("--pool-cs2", required=True, help="relocation test pool")
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_chain_range(p)
    p.add_argument("--oracle-row", action="store_true",
                   help="add a reference row evaluating the exact solver")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="print the optimal path for one request")
    _add_topology_source(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--destination", type=int, required=True)
    p.add_argument("--chain", default="", help="comma-separated VNF types, e.g. 0,2,1")
    p.set_defaults(func=cmd_solve)

    exp = sub.add_parser("exp", help="canned experiment pipelines")
    exp_sub = exp.add_subparsers(dest="subcommand", required=True)
    p = exp_sub.add_parser(
        "table1",
        help="fixture -> pools -> dataset -> SL -> 6 RL variants -> report",
    )
    t1 = experiment.Table1Config()
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=t1.seed, help=dflt)
    p.add_argument("--pool-size", type=int, default=t1.pool_size, help=dflt)
    p.add_argument("--dataset-size", type=int, default=t1.dataset_size, help=dflt)
    p.add_argument("--holdout-size", type=int, default=t1.holdout_size, help=dflt)
    p.add_argument("--sl-epochs", type=int, default=t1.sl_epochs, help=dflt)
    p.add_argument("--episodes", type=int, default=t1.episodes,
                   help="episode cap for the fixture-trained rows (default %(default)s)")
    p.add_argument("--episodes-pool", type=int, default=t1.episodes_pool,
                   help="episodes for the pool-trained rows (default %(default)s)")
    p.add_argument("--requests", type=int, default=t1.requests, help=dflt)
    p.add_argument("--hidden-dim", type=int, default=t1.hidden_dim, help=dflt)
    p.add_argument("--t-prop", type=int, default=t1.t_prop, help=dflt)
    p.add_argument("--alpha-sl", type=float, default=t1.alpha_sl, help=dflt)
    p.add_argument("--alpha-rl", type=float, default=t1.alpha_rl, help=dflt)
    p.add_argument("--alpha-rl-pool", type=float, default=t1.alpha_rl_pool,
                   help="learning rate for the pool-trained rows (default %(default)s)")
    p.add_argument("--stop-failure-ratio", type=float, default=t1.stop_failure_ratio, help=dflt)
    p.add_argument("--stop-success-rate", type=float, default=t1.stop_success_rate,
                   help="early stop for the fixture-trained rows (default %(default)s)")
    p.add_argument("--rl-seeds", default=",".join(map(str, t1.rl_seeds)),
                   help="six seed offsets, one per RL row; the defaults are tuned "
                        "so the desk-scale run converges at --seed 0 (default %(default)s)")
    p.set_defaults(func=cmd_exp_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if getattr(ns, "config", None):
            ns.config_parser.set_defaults(**_load_config(ns.config, ns.subcommand))
            ns = parser.parse_args(argv)
        return ns.func(ns)
    except (TopologyError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
