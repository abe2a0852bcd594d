"""The benchmark's three workloads: the label, train and eval stages of
``ggsfc exp table1``, driven through the library's public functions.

A workload is a setup, which makes every input from the workload seed
outside the timed region, and a pass: a fixed sequence of chunks of
library calls.  A pass gives bit-identical outputs every time it runs, so
passes repeat until the run's time is up, each chunk is timed on its own,
and quality, digests and traced counts all come from one pass.  Every
workload is a closed loop: one caller, one request at a time.

Why these three: ``label`` is solver-bound (oracle plus its environment
replay, no policy or nn work), ``train`` is dominated by episode backward
passes and SGD with the solver absent from the timed region, and ``eval``
is forward-only greedy decoding plus one solve per actor and request.  An
episode-core change shows on train and eval and not on label; a batched or
solve-once evaluator shows on eval and not on train.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ggsfc import environment, evaluation, oracle, policy, topology, training

CHECKPOINTS = Path(__file__).resolve().parent / "checkpoints"
# sha256 of the files bench/make_checkpoints.py writes
CHECKPOINT_SHA256 = {
    "sl": "0b65769c7c8f3f8db1a89904dd660a8d6ffb994042e220e7e322e738a3bf3c63",
    "rl": "aadc4845168ff4483723c7a7a2a26a466c1c7978bbc9efe37aeeacbd8be830d6",
}
CHAIN_LENS = (1, 4)
SL_INIT_SEED = 7
# (lambda, alpha) of the two RL rows: fixture, then a cs2 pool
RL_ROWS = ((0.0, 1e-5), (1.0, 1e-6))

# mark(ops, kind) closes a chunk of `ops` operations of one kind
Mark = Callable[[int, str], None]


@dataclass(frozen=True)
class Sizes:
    pool_size: int = 60
    label_chunk: int = 250       # requests per chunk
    label_chunks: int = 8
    brute_force_checks: int = 20
    sl_examples: int = 160       # one SL chunk is one epoch over these
    sl_holdout: int = 32
    sl_epochs: int = 2
    rl_episodes: int = 100       # per RL row
    rl_chunk: int = 20
    eval_requests: int = 20      # per test and chunk
    eval_chunks: int = 12


DEFAULT_SIZES = Sizes()


class CheckpointMismatch(RuntimeError):
    pass


def load_checkpoint(name: str):
    path = CHECKPOINTS / f"{name}.ckpt"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != CHECKPOINT_SHA256[name]:
        raise CheckpointMismatch(
            f"{path} has sha256 {digest}, expected {CHECKPOINT_SHA256[name]}; "
            "regenerate it with bench/make_checkpoints.py"
        )
    params, cfg, _ = policy.load_policy(path)
    return params, cfg


def _sub_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _chain_len(i: int) -> int:
    """Chain lengths cycle through CHAIN_LENS, so every seed poses the same
    mix of lengths and throughput differs less between seeds."""
    lo, hi = CHAIN_LENS
    return lo + i % (hi - lo + 1)


def _requests(t: topology.Topology, count: int, rng: np.random.Generator):
    return [environment.generate_requests(t, 1, (n, n), rng)[0]
            for n in map(_chain_len, range(count))]


def _replay_ok(t: topology.Topology, req, actions, delay: int) -> bool:
    """An oracle label replays through the environment to its claimed delay."""
    s = environment.reset(t, req, max_steps=len(actions))
    cfg = environment.RewardConfig()
    for a in actions:
        s, _, _ = environment.step(s, a, t, cfg)
    p = s.path_so_far
    return p.success and p.total_delay == delay == environment.total_delay(p, t)


@dataclass
class Checks:
    """Output checks of one workload: ops whose output was checked, and failed."""

    checked: int = 0
    failed: int = 0

    def add(self, ok: bool, ops: int = 1) -> None:
        self.checked += ops
        if not ok:
            self.failed += ops


class Workload:
    name: str
    kinds: dict[str, str]   # chunk kind -> name of its throughput detail line
    quality_metrics: tuple[str, ...] = ()

    def quality(self, st, out) -> dict[str, float]:
        return {}

    def test_requests(self, st) -> int:
        """Evaluation requests one pass poses."""
        return 0


# ---------------------------------------------------------------------------
# label: generate pools, then solver-label requests over fixture and pools

class Label(Workload):
    name = "label"
    kinds = {"solve": "solves_per_s"}

    def setup(self, seed: int, sizes: Sizes):
        rng = np.random.default_rng([seed, 1])
        fixture = topology.internet2_fixture()
        cs1_seed, cs2_seed = _sub_seeds(rng, 2)
        cs1 = topology.generate_pool(fixture, "cs1", sizes.pool_size, seed=cs1_seed)
        cs2 = topology.generate_pool(fixture, "cs2", sizes.pool_size, seed=cs2_seed)
        topos = [fixture, *cs1.variants, *cs2.variants]
        chunks = []
        for _ in range(sizes.label_chunks):
            chunk = []
            for i in range(sizes.label_chunk):
                # a third each on the fixture, the cs1 pool and the cs2 pool
                group = i % 3
                tid = 0 if group == 0 else 1 + (group - 1) * sizes.pool_size + int(
                    rng.integers(sizes.pool_size))
                n = _chain_len(i // 3)
                chunk.append((tid, environment.generate_requests(topos[tid], 1, (n, n), rng)[0]))
            chunks.append(chunk)
        return {"topos": topos, "chunks": chunks, "sizes": sizes}

    def run_pass(self, st, mark: Mark):
        out = []
        for chunk in st["chunks"]:
            out.append(oracle.label_dataset(st["topos"], chunk))
            mark(len(chunk), "solve")
        return out

    def ops(self, st) -> int:
        return sum(len(c) for c in st["chunks"])

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for ds in out:
            h.update(oracle.save_dataset(ds).encode())
        return h.hexdigest()

    def expected_counts(self, st, out) -> dict[str, int]:
        counts = {"oracle.solve_optimal.calls": self.ops(st)}
        if all(ds.dropped_over_budget == 0 for ds in out):
            # each feasible solve replays its walk once: one reset, one step per action
            counts["environment.reset.calls"] = sum(len(ds) for ds in out)
            counts["environment.step.calls"] = sum(
                len(ex.actions) for ds in out for ex in ds.examples)
        return counts

    def check(self, st, out) -> Checks:
        checks = Checks()
        topos = st["topos"]
        examples = [ex for ds in out for ex in ds.examples]
        for ex in examples:
            checks.add(_replay_ok(topos[ex.topology_id], ex.request, ex.actions, ex.optimal_delay))
        rng = np.random.default_rng(0)
        n = min(st["sizes"].brute_force_checks, len(examples))
        for i in rng.choice(len(examples), size=n, replace=False):
            ex = examples[int(i)]
            brute = oracle.brute_force_optimal(topos[ex.topology_id], ex.request)
            checks.add(brute.feasible and brute.optimal_delay == ex.optimal_delay)
        return checks


# ---------------------------------------------------------------------------
# train: SL from init for fixed epochs, then two RL rows from a fixed checkpoint

class Train(Workload):
    name = "train"
    kinds = {"sl": "sl_examples_per_s", "rl": "rl_episodes_per_s"}
    quality_metrics = ("training.sl.final_loss", "training.rl.success_rate")

    def setup(self, seed: int, sizes: Sizes):
        rng = np.random.default_rng([seed, 2])
        fixture = topology.internet2_fixture()
        dataset = oracle.label_dataset(fixture, _requests(fixture, sizes.sl_examples, rng))
        holdout = oracle.label_dataset(fixture, _requests(fixture, sizes.sl_holdout, rng))
        # REINFORCE from the SL checkpoint collapses the fixture row within
        # tens of episodes, so its episodes fail and skip backward; the RL
        # checkpoint keeps about 70% of episodes successful across both rows
        start, cfg = load_checkpoint("rl")
        pool_seed, sl_seed, *rl_seeds = _sub_seeds(rng, 2 + len(RL_ROWS))
        cs2 = topology.generate_pool(fixture, "cs2", sizes.pool_size, seed=pool_seed)
        rows = [
            (topos, training.HyperParams(alpha_rl=alpha, lam=lam,
                                         episodes=sizes.rl_episodes, seed=s))
            for topos, (lam, alpha), s in zip((fixture, cs2), RL_ROWS, rl_seeds)
        ]
        return {
            "fixture": fixture, "dataset": dataset, "holdout": holdout, "cfg": cfg,
            "start": start, "rows": rows, "sizes": sizes,
            "hp_sl": training.HyperParams(alpha_sl=0.001, sl_epochs=sizes.sl_epochs,
                                          seed=sl_seed),
        }

    def run_pass(self, st, mark: Mark):
        cfg = st["cfg"]
        n_sl = len(st["dataset"])
        chunk = st["sizes"].rl_chunk
        sl, sl_hist = training.train_sl(
            policy.init_policy_params(cfg, seed=SL_INIT_SEED), cfg, st["fixture"],
            st["dataset"], st["hp_sl"], holdout=st["holdout"],
            progress=lambda row: mark(n_sl, "sl"),
        )
        rows = []
        for topos, hp in st["rows"]:
            def progress(row, n=hp.episodes):
                if row.index % chunk == 0 or row.index == n:
                    mark((row.index - 1) % chunk + 1, "rl")
            # a window over the whole row makes its last success rate exact
            rows.append(training.train_rl(st["start"], topos, hp, cfg,
                                          rolling_window=hp.episodes, progress=progress))
        return sl, sl_hist, rows

    def ops(self, st) -> int:
        s = st["sizes"]
        return len(st["dataset"]) * s.sl_epochs + s.rl_episodes * len(st["rows"])

    def digest(self, out) -> str:
        sl, sl_hist, rows = out
        h = hashlib.sha256()
        for params, hist in [(sl, sl_hist), *rows]:
            for name in sorted(params.names()):
                h.update(name.encode())
                h.update(params[name].tobytes())
            h.update(repr([(r.success_rate, r.mean_delay, r.loss) for r in hist]).encode())
        return h.hexdigest()

    @staticmethod
    def _rl_successes(hist) -> int:
        return round(hist[-1].success_rate * len(hist))

    def expected_counts(self, st, out) -> dict[str, int]:
        _, sl_hist, rows = out
        s = st["sizes"]
        sl_steps = len(st["dataset"]) * len(sl_hist)
        successes = sum(self._rl_successes(hist) for _, hist in rows)
        return {
            "policy.episode_gradients.calls": sl_steps + successes,
            "nn.sgd_update.calls": sl_steps + successes,
            "policy.rollout.calls": len(st["holdout"]) * len(sl_hist)
            + s.rl_episodes * len(rows),
        }

    def quality(self, st, out) -> dict[str, float]:
        _, sl_hist, rows = out
        episodes = sum(len(hist) for _, hist in rows)
        return {
            "training.sl.final_loss": sl_hist[-1].loss,
            "training.rl.success_rate":
                sum(self._rl_successes(hist) for _, hist in rows) / episodes,
        }

    def check(self, st, out) -> Checks:
        checks = Checks()
        fixture = st["fixture"]
        for ds in (st["dataset"], st["holdout"]):
            for ex in ds.examples:
                checks.add(_replay_ok(fixture, ex.request, ex.actions, ex.optimal_delay))
        _, sl_hist, rows = out
        s = st["sizes"]
        checks.add(len(sl_hist) == s.sl_epochs
                   and all(np.isfinite(r.loss) for r in sl_hist), len(st["dataset"]))
        for _, hist in rows:
            checks.add(len(hist) == s.rl_episodes, s.rl_episodes)
        return checks


# ---------------------------------------------------------------------------
# eval: the three-test protocol on fixed SL and RL checkpoints plus the oracle

class Eval(Workload):
    name = "eval"
    kinds = {"pair": "eval_requests_per_s"}
    quality_metrics = ("evaluation.rl.fr_original", "evaluation.rl.dr_original",
                       "evaluation.rl.fr_random", "evaluation.rl.fr_random_vnfs")
    TESTS = ("original", "random", "random_vnfs")

    def setup(self, seed: int, sizes: Sizes):
        rng = np.random.default_rng([seed, 3])
        fixture = topology.internet2_fixture()
        sl, cfg = load_checkpoint("sl")
        rl, _ = load_checkpoint("rl")
        cs1_seed, cs2_seed = _sub_seeds(rng, 2)
        pools = {
            "cs1": topology.generate_pool(fixture, "cs1", sizes.pool_size, seed=cs1_seed),
            "cs2": topology.generate_pool(fixture, "cs2", sizes.pool_size, seed=cs2_seed),
        }
        return {
            "fixture": fixture, "pools": pools, "sizes": sizes,
            "checkpoints": [("SL", sl, cfg), ("RL", rl, cfg)],
            "chunk_seeds": _sub_seeds(rng, sizes.eval_chunks),
        }

    def _run(self, st, chunk: int, checkpoints, actors):
        n = _chain_len(chunk)
        return evaluation.run_experiment(
            checkpoints, st["fixture"], st["pools"],
            request_count=st["sizes"].eval_requests, seed=st["chunk_seeds"][chunk],
            chain_len_range=(n, n), actors=actors,
        )

    def run_pass(self, st, mark: Mark):
        out = []
        pairs = (len(st["checkpoints"]) + 1) * len(self.TESTS) * st["sizes"].eval_requests
        for chunk in range(len(st["chunk_seeds"])):
            out.append(self._run(st, chunk, st["checkpoints"],
                                 [("oracle", evaluation.oracle_actor())]))
            mark(pairs, "pair")
        return out

    def ops(self, st) -> int:
        return ((len(st["checkpoints"]) + 1) * len(self.TESTS)
                * st["sizes"].eval_requests * len(st["chunk_seeds"]))

    def test_requests(self, st) -> int:
        return len(self.TESTS) * st["sizes"].eval_requests * len(st["chunk_seeds"])

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for report in out:
            h.update(evaluation.report_to_csv(report).encode())
        return h.hexdigest()

    def _metrics(self, row):
        return [getattr(row, test) for test in self.TESTS]

    def expected_counts(self, st, out) -> dict[str, int]:
        r = st["sizes"].eval_requests
        models = len(st["checkpoints"])
        solves = rollouts = 0
        for report in out:
            feasible = sum(r - m.infeasible for m in self._metrics(report.rows[0]))
            # every actor re-solves each request; the oracle actor solves again
            solves += (models + 1) * len(self.TESTS) * r + feasible
            rollouts += models * feasible
        return {"oracle.solve_optimal.calls": solves, "policy.rollout.calls": rollouts}

    def quality(self, st, out) -> dict[str, float]:
        r = st["sizes"].eval_requests
        failed = [0, 0, 0]
        feasible = [0, 0, 0]
        dr = []
        for report in out:
            row = next(row for row in report.rows if row.approach == "RL")
            for i, m in enumerate(self._metrics(row)):
                n = r - m.infeasible
                failed[i] += round(m.failure_ratio * n)
                feasible[i] += n
            dr.append(row.original.delay_ratio)
        return {
            "evaluation.rl.fr_original": failed[0] / feasible[0],
            "evaluation.rl.dr_original": float(np.nanmean(dr)),
            "evaluation.rl.fr_random": failed[1] / feasible[1],
            "evaluation.rl.fr_random_vnfs": failed[2] / feasible[2],
        }

    def check(self, st, out) -> Checks:
        checks = Checks()
        per_chunk = self.ops(st) // len(out)
        for report in out:
            oracle_row = next(row for row in report.rows if row.approach == "oracle")
            checks.add(all(m.failure_ratio == 0.0 and m.delay_ratio == 1.0
                           for m in self._metrics(oracle_row)), per_chunk)
        # replay the first chunk with actors that check every greedy trace's
        # delay against the environment; their rows must equal the measured ones
        trace_checks = Checks()

        def checking_actor(params, cfg):
            def act(t, req):
                trace = policy.rollout(params, cfg, t, req, mode="greedy")
                trace_checks.add(trace.total_delay == environment.total_delay(trace.path, t))
                return trace.success, trace.total_delay
            return act

        actors = [(label, checking_actor(p, cfg)) for label, p, cfg in st["checkpoints"]]
        replayed = self._run(st, 0, [], actors)
        measured = {row.approach: row for row in out[0].rows}
        for row in replayed.rows:
            # repr, so that nan delay ratios compare equal
            checks.add(repr(row) == repr(measured[row.approach]),
                       len(self.TESTS) * st["sizes"].eval_requests)
        checks.checked += trace_checks.checked
        checks.failed += trace_checks.failed
        return checks


WORKLOADS = {w.name: w for w in (Label(), Train(), Eval())}
QUALITY_METRICS = tuple(m for w in WORKLOADS.values() for m in w.quality_metrics)
