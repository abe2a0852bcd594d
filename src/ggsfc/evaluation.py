"""Metrics and the three-test evaluation protocol.

Failure Ratio: failed requests over all requests.
Delay Ratio: total generated delay over total optimal delay, summed across
successful requests (sum over sum, not mean of ratios).
Deterioration Rate: a checkpoint's failure ratio on a mutated-topology test
divided by its failure ratio on the original topology, printed to one
decimal; undefined when the original failure ratio is zero.

The experiment harness runs each checkpoint through three tests: the
original topology, a pool of structurally mutated topologies, and a pool
mutated with relocated VNF instances.  Requests are generated once per test
from the experiment seed, so every checkpoint answers the same questions
and reruns are byte-identical.  A checkpoint's greedy walks of all three
tests advance in one ``policy.Lockstep``, and each request's walk is its
``rollout`` taken from it, the path its own rollout gives, so the report is
the one per-request walks would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .environment import (
    DEFAULT_CHAIN_LEN_RANGE,
    SfcRequest,
    generate_pool_requests,
    generate_requests,
)
from .nn import ParamSet
from .oracle import solve_optimal
from .policy import Lockstep, PolicyConfig, rollout
from .topology import Topology, TopologyPool

TEST_RANDOM = "random"
TEST_RANDOM_VNFS = "random_vnfs"

# an actor answers one request: (success, generated delay)
Actor = Callable[[Topology, SfcRequest], tuple[bool, int]]


@dataclass(frozen=True)
class RequestOutcome:
    success: bool
    generated_delay: int | None
    oracle_delay: int | None


@dataclass(frozen=True)
class TestOutcome:
    """All per-request outcomes of one test, plus the excluded-request count."""

    outcomes: tuple[RequestOutcome, ...]
    infeasible: int


def failure_ratio(outcomes: Sequence[RequestOutcome]) -> float:
    if not outcomes:
        raise ValueError("failure_ratio of an empty outcome list")
    failures = sum(1 for o in outcomes if not o.success)
    return failures / len(outcomes)


def delay_ratio(outcomes: Sequence[RequestOutcome]) -> float:
    """Sum of generated delays over sum of oracle delays, successes only."""
    generated = 0
    optimal = 0
    for o in outcomes:
        if o.success and o.oracle_delay is not None:
            generated += o.generated_delay
            optimal += o.oracle_delay
    if optimal == 0:
        raise ValueError("delay_ratio has no successful outcomes with oracle labels")
    return generated / optimal


def deterioration_rate(fr_random: float, fr_original: float) -> float:
    """fr_random / fr_original; nan marks the undefined zero-original case."""
    if fr_original < 0 or fr_random < 0:
        raise ValueError("failure ratios must be >= 0")
    if fr_original == 0:
        return float("nan")
    return fr_random / fr_original


# ---------------------------------------------------------------------------
# policies and actors

def _outcome(success: bool, delay: int, oracle_delay: int) -> RequestOutcome:
    return RequestOutcome(success=success, generated_delay=delay if success else None,
                          oracle_delay=oracle_delay)


def _evaluate_tests(
    tests: Sequence[Sequence[tuple[Topology, SfcRequest]]],
    answer: Callable[[list[tuple[Topology, SfcRequest]]], Iterator[tuple[bool, int]]],
) -> list[TestOutcome]:
    """The outcomes of each test.  Requests the exact solver cannot serve
    are excluded from the metrics and counted, so the numbers measure policy
    quality, not topology pathology; oracle delays are recorded for every
    retained request.  One answer call takes the feasible pairs of every
    test, in order, and yields (success, generated delay) for each."""
    feasible = [[(pair, res) for pair, res in ((p, solve_optimal(*p)) for p in pairs)
                 if res.feasible] for pairs in tests]
    answers = answer([pair for test in feasible for pair, _ in test])
    return [TestOutcome(tuple(_outcome(*next(answers), res.optimal_delay) for _, res in test),
                        infeasible=len(pairs) - len(test))
            for pairs, test in zip(tests, feasible)]


def evaluate_requests(
    actor: Actor, pairs: Sequence[tuple[Topology, SfcRequest]]
) -> TestOutcome:
    """The actor on each (topology, request) pair, measured as _evaluate_tests
    measures: unservable requests excluded and counted."""
    return _evaluate_tests([pairs], lambda feasible: (actor(*pair) for pair in feasible))[0]


def greedy_walks(
    params: ParamSet, cfg: PolicyConfig, pairs: Sequence[tuple[Topology, SfcRequest]]
) -> Iterator[tuple[bool, int]]:
    """(success, delay) of each pair's greedy walk, in order, its rollout
    taken from one ``Lockstep``, so a long failing walk shares its steps with
    the others; the SL holdout reads them too."""
    lockstep = Lockstep(params, cfg, pairs)
    for pair in pairs:
        path = rollout(params, cfg, *pair, lockstep=lockstep)
        yield path.success, path.total_delay


def oracle_actor() -> Actor:
    """The exact solver posing as a policy (failure ratio 0, delay ratio 1)."""

    def act(t: Topology, req: SfcRequest) -> tuple[bool, int]:
        res = solve_optimal(t, req)
        if not res.feasible:
            return False, 0
        return True, res.optimal_delay

    return act


# ---------------------------------------------------------------------------
# the three-test experiment

@dataclass(frozen=True)
class TestMetrics:
    failure_ratio: float
    delay_ratio: float
    infeasible: int


@dataclass(frozen=True)
class ReportRow:
    approach: str
    original: TestMetrics
    random: TestMetrics
    random_vnfs: TestMetrics

    def deterioration(self, test: str) -> float:
        metrics = {TEST_RANDOM: self.random, TEST_RANDOM_VNFS: self.random_vnfs}[test]
        return deterioration_rate(metrics.failure_ratio, self.original.failure_ratio)


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple[ReportRow, ...]
    request_count: int
    seed: int


def _pool_pairs(
    pool: TopologyPool,
    count: int,
    chain_len_range: tuple[int, int],
    rng: np.random.Generator,
) -> list[tuple[Topology, SfcRequest]]:
    pairs = generate_pool_requests(pool.variants, count, chain_len_range, rng)
    return [(pool.variants[tid], req) for tid, req in pairs]


def _row(label: str, outcomes: list[TestOutcome]) -> ReportRow:
    """A report row from the outcomes of the three tests, in order."""
    metrics = []
    for outcome in outcomes:
        try:
            dr = delay_ratio(outcome.outcomes)
        except ValueError:
            dr = float("nan")
        metrics.append(TestMetrics(failure_ratio=failure_ratio(outcome.outcomes),
                                   delay_ratio=dr, infeasible=outcome.infeasible))
    return ReportRow(label, *metrics)


def run_experiment(
    checkpoints: Sequence[tuple[str, ParamSet, PolicyConfig]],
    fixture: Topology,
    pools: dict[str, TopologyPool],
    request_count: int = 1000,
    seed: int = 0,
    chain_len_range: tuple[int, int] = DEFAULT_CHAIN_LEN_RANGE,
    actors: Sequence[tuple[str, Actor]] = (),
) -> MetricsReport:
    """Evaluate checkpoints on the original topology and both mutation pools.

    pools maps 'cs1' to the structural-mutation pool (Random Topo. test) and
    'cs2' to the relocation pool (Random Topo.+VNFs test).  Each checkpoint's
    row is one _evaluate_tests over the three tests, the feasible requests
    of all three answered by its greedy_walks.  Extra non-model actors (like
    oracle_actor) may ride along for reference rows, each measured by
    evaluate_requests.
    """
    if request_count < 1:
        raise ValueError(f"request count must be >= 1, got {request_count}")
    for key in ("cs1", "cs2"):
        if key not in pools:
            raise ValueError(f"missing pool {key!r}")
    rng = np.random.default_rng(seed)
    pairs1 = [(fixture, r) for r in generate_requests(fixture, request_count, chain_len_range, rng)]
    pairs2 = _pool_pairs(pools["cs1"], request_count, chain_len_range, rng)
    pairs3 = _pool_pairs(pools["cs2"], request_count, chain_len_range, rng)

    tests = (pairs1, pairs2, pairs3)
    rows = [_row(label, _evaluate_tests(tests, partial(greedy_walks, params, cfg)))
            for label, params, cfg in checkpoints]
    rows += [_row(label, [evaluate_requests(actor, pairs) for pairs in tests])
             for label, actor in actors]
    return MetricsReport(rows=tuple(rows), request_count=request_count, seed=seed)


# ---------------------------------------------------------------------------
# report emission

def _fmt_ratio(x: float) -> str:
    return "-" if math.isnan(x) else f"{x:.4f}"


def _fmt_det(x: float) -> str:
    return "undef" if math.isnan(x) else f"{x:.1f}"


def report_to_csv(report: MetricsReport) -> str:
    """One row per approach; delay ratios on the random tests come from our
    solver and are extension columns, not part of the reference table shape."""
    header = (
        "approach,original_failure_ratio,original_delay_ratio,"
        "random_failure_ratio,random_deterioration,random_delay_ratio_ext,"
        "random_vnfs_failure_ratio,random_vnfs_deterioration,random_vnfs_delay_ratio_ext,"
        "infeasible_original,infeasible_random,infeasible_random_vnfs"
    )
    lines = [header]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    r.approach,
                    _fmt_ratio(r.original.failure_ratio),
                    _fmt_ratio(r.original.delay_ratio),
                    _fmt_ratio(r.random.failure_ratio),
                    _fmt_det(r.deterioration(TEST_RANDOM)),
                    _fmt_ratio(r.random.delay_ratio),
                    _fmt_ratio(r.random_vnfs.failure_ratio),
                    _fmt_det(r.deterioration(TEST_RANDOM_VNFS)),
                    _fmt_ratio(r.random_vnfs.delay_ratio),
                    str(r.original.infeasible),
                    str(r.random.infeasible),
                    str(r.random_vnfs.infeasible),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def format_report(report: MetricsReport) -> str:
    """Human-readable table: failure ratio, delay ratio, and the two
    mutated-topology failure ratios with deterioration rates in parens."""
    name_w = max([len("approach")] + [len(r.approach) for r in report.rows])
    header = (
        f"{'approach':<{name_w}}  {'Original Topo.':>22}  "
        f"{'Random Topo.':>18}  {'Random Topo.+VNFs':>18}"
    )
    sub = (
        f"{'':<{name_w}}  {'FR':>10} {'DR':>11}  {'FR (Det.)':>18}  {'FR (Det.)':>18}"
    )
    lines = [header, sub, "-" * len(sub)]
    for r in report.rows:
        fr2 = f"{_fmt_ratio(r.random.failure_ratio)} ({_fmt_det(r.deterioration(TEST_RANDOM))})"
        fr3 = f"{_fmt_ratio(r.random_vnfs.failure_ratio)} ({_fmt_det(r.deterioration(TEST_RANDOM_VNFS))})"
        lines.append(
            f"{r.approach:<{name_w}}  {_fmt_ratio(r.original.failure_ratio):>10} "
            f"{_fmt_ratio(r.original.delay_ratio):>11}  {fr2:>18}  {fr3:>18}"
        )
    lines.append(
        f"(requests per test: {report.request_count}, seed {report.seed}; "
        f"delay ratios on the random tests use our exact solver)"
    )
    return "\n".join(lines) + "\n"


def save_report(report: MetricsReport, directory: str | Path) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "report.csv").write_text(report_to_csv(report))
    (d / "report.txt").write_text(format_report(report))
