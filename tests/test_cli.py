"""End-to-end command-line behavior with desk-drawer sized runs."""

import json
import re
import shutil

import numpy as np
import pytest

from dataclasses import fields, replace

from ggsfc.cli import _table1_config, build_parser, main
from ggsfc.experiment import Table1Config, run_table1
from ggsfc.environment import SfcRequest
from ggsfc.oracle import label_dataset, load_dataset_file, save_dataset
from ggsfc.policy import PolicyConfig, init_policy_params, save_policy
from ggsfc.topology import (
    internet2_fixture,
    load_pool,
    load_topology_file,
    mutate_cs1,
    mutate_cs2,
    save_topology,
    save_topology_file,
    topology_sha256,
)
from ggsfc.training import HistoryRow, format_history_row


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# topo

def test_topo_fixture_writes_the_bundled_topology(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert run("topo", "fixture", "--out", str(out)) == 0
    assert load_topology_file(out) == internet2_fixture()
    assert "12 nodes" in capsys.readouterr().out


def test_topo_fixture_directory_target_picks_a_name(tmp_path):
    assert run("topo", "fixture", "--out", str(tmp_path / "nets") + "/") == 0
    assert (tmp_path / "nets" / "internet2.json").exists()


def test_topo_mutate_matches_library_call(tmp_path):
    out = tmp_path / "mut.json"
    assert run("topo", "mutate", "--fixture", "--strategy", "cs1",
               "--seed", "3", "--out", str(out)) == 0
    expected = mutate_cs1(internet2_fixture(), np.random.default_rng(3))
    assert load_topology_file(out) == expected


def test_topo_pool_round_trips(tmp_path):
    out = tmp_path / "pool"
    assert run("topo", "pool", "--fixture", "--strategy", "cs2",
               "--count", "3", "--seed", "5", "--out", str(out)) == 0
    pool = load_pool(out)
    assert len(pool.variants) == 3
    assert topology_sha256(pool.base) == topology_sha256(internet2_fixture())


def test_topo_mutate_takes_its_strategy_from_the_library_table(tmp_path):
    out = tmp_path / "mut.json"
    assert run("topo", "mutate", "--fixture", "--strategy", "cs2",
               "--seed", "3", "--out", str(out)) == 0
    assert load_topology_file(out) == mutate_cs2(internet2_fixture(), np.random.default_rng(3))
    with pytest.raises(SystemExit) as exc:
        run("topo", "mutate", "--fixture", "--strategy", "cs3", "--out", str(out))
    assert exc.value.code == 2


def test_topology_source_flags_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("topo", "mutate", "--fixture", "--topology", "x.json",
            "--strategy", "cs1", "--out", str(tmp_path / "m.json"))
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# dataset

def test_dataset_from_fixture(tmp_path, capsys):
    out = tmp_path / "ds.json"
    assert run("dataset", "--fixture", "--count", "5", "--seed", "1",
               "--chain-max", "2", "--out", str(out)) == 0
    ds = load_dataset_file(out)
    assert 1 <= len(ds) <= 5
    assert all(ex.topology_id == 0 for ex in ds.examples)
    assert "wrote" in capsys.readouterr().out


def test_dataset_from_pool(tmp_path):
    pool_dir = tmp_path / "pool"
    run("topo", "pool", "--fixture", "--strategy", "cs1",
        "--count", "2", "--seed", "8", "--out", str(pool_dir))
    out = tmp_path / "ds.json"
    assert run("dataset", "--pool", str(pool_dir), "--count", "4",
               "--seed", "2", "--out", str(out)) == 0
    ds = load_dataset_file(out)
    assert all(ex.topology_id in (0, 1) for ex in ds.examples)


def test_dataset_missing_source_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("dataset", "--count", "3", "--out", str(tmp_path / "d.json"))
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# train

@pytest.fixture()
def sl_run(tmp_path):
    ds = tmp_path / "ds.json"
    run("dataset", "--fixture", "--count", "6", "--seed", "1",
        "--chain-max", "2", "--out", str(ds))
    out = tmp_path / "sl"
    rc = run("train", "sl", "--fixture", "--dataset", str(ds),
             "--epochs", "1", "--seed", "0", "--out", str(out))
    return rc, ds, out


def test_train_sl_writes_checkpoint_history_and_config(sl_run):
    rc, ds, out = sl_run
    assert rc == 0
    assert (out / "sl.ckpt").exists()
    assert (out / "history.csv").read_text().startswith("epoch,")
    config = json.loads((out / "config.json").read_text())
    assert config["mode"] == "sl"
    assert config["dataset"] == str(ds)


def test_train_sl_without_dataset_fails_cleanly(tmp_path, capsys):
    rc = run("train", "sl", "--fixture", "--out", str(tmp_path / "sl"))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_train_sl_rejects_an_out_of_range_topology_id(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    run("dataset", "--fixture", "--count", "3", "--seed", "1",
        "--chain-max", "2", "--out", str(ds))
    doc = json.loads(ds.read_text())
    doc["examples"][-1]["topology_id"] = 5
    ds.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run("train", "sl", "--fixture", "--dataset", str(ds),
             "--epochs", "1", "--out", str(tmp_path / "sl"))
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "topology_id 5" in captured.err and "< 1" in captured.err
    assert not (tmp_path / "sl" / "sl.ckpt").exists()
    assert not (tmp_path / "sl" / "config.json").exists()


def test_train_sl_trains_on_a_labelled_pool(tmp_path, capsys):
    pool, ds, out = tmp_path / "pool", tmp_path / "ds.json", tmp_path / "sl"
    assert run("topo", "pool", "--fixture", "--strategy", "cs1", "--count", "2",
               "--seed", "3", "--out", str(pool)) == 0
    assert run("dataset", "--pool", str(pool), "--count", "6", "--seed", "1",
               "--chain-max", "2", "--out", str(ds)) == 0
    assert {ex.topology_id for ex in load_dataset_file(ds).examples} == {0, 1}
    capsys.readouterr()
    assert run("train", "sl", "--pool", str(pool), "--dataset", str(ds),
               "--holdout", str(ds), "--epochs", "1", "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("epoch 1: ")
    assert (out / "sl.ckpt").exists()
    config = json.loads((out / "config.json").read_text())
    assert config["pool"] == str(pool) and config["topology"] is None


@pytest.mark.parametrize("role", ["dataset", "holdout"])
def test_train_sl_refuses_labels_from_another_topology(tmp_path, capsys, role):
    pool, out = tmp_path / "pool", tmp_path / "sl"
    fixture_ds, pool_ds = tmp_path / "fixture_ds.json", tmp_path / "pool_ds.json"
    assert run("topo", "pool", "--fixture", "--strategy", "cs1", "--count", "2",
               "--seed", "3", "--out", str(pool)) == 0
    assert run("dataset", "--fixture", "--count", "20", "--seed", "1",
               "--chain-max", "2", "--out", str(fixture_ds)) == 0
    assert run("dataset", "--pool", str(pool), "--count", "6", "--seed", "1",
               "--chain-max", "2", "--out", str(pool_ds)) == 0
    capsys.readouterr()
    dataset, holdout = (fixture_ds, pool_ds) if role == "dataset" else (pool_ds, fixture_ds)
    rc = run("train", "sl", "--pool", str(pool), "--dataset", str(dataset),
             "--holdout", str(holdout), "--epochs", "1", "--out", str(out))
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {fixture_ds}: example 0 (topology_id 0) ")
    assert not out.exists()


def test_train_rl_refused_by_the_policy_writes_nothing(tmp_path, capsys):
    topo = tmp_path / "k6.json"
    save_topology_file(replace(internet2_fixture(), vnf_type_count=6), topo)
    ckpt = tmp_path / "k5.ckpt"
    cfg = PolicyConfig()
    save_policy(init_policy_params(cfg), cfg, ckpt, seed=0, training_stage="sl")
    out = tmp_path / "rl"
    rc = run("train", "rl", "--topology", str(topo), "--init", str(ckpt),
             "--episodes", "1", "--out", str(out))
    assert rc == 1
    assert "declares 6 VNF types, policy expects 5" in capsys.readouterr().err
    assert not out.exists()


def test_history_echo_prints_a_failed_episode_loss_as_zero():
    row = HistoryRow(index=1, success_rate=0.0, mean_delay=float("nan"), loss=-0.0)
    assert format_history_row("episode", row).endswith(" loss 0.0000")


def test_train_rl_from_checkpoint(sl_run, tmp_path, capsys):
    _, _, sl_out = sl_run
    out = tmp_path / "rl"
    rc = run("train", "rl", "--fixture", "--init", str(sl_out / "sl.ckpt"),
             "--episodes", "3", "--seed", "0", "--out", str(out))
    assert rc == 0
    assert (out / "rl.ckpt").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "episode,success_rate,mean_delay,loss"
    assert len(history) == 4  # header + one row per episode
    assert json.loads((out / "config.json").read_text())["lam"] == 0.0


def test_train_rl_on_a_pool_from_scratch(tmp_path):
    pool_dir = tmp_path / "pool"
    run("topo", "pool", "--fixture", "--strategy", "cs1",
        "--count", "2", "--seed", "3", "--out", str(pool_dir))
    out = tmp_path / "rl"
    rc = run("train", "rl", "--pool", str(pool_dir), "--from-scratch",
             "--episodes", "2", "--lambda", "1", "--out", str(out))
    assert rc == 0
    assert json.loads((out / "config.json").read_text())["lam"] == 1.0


@pytest.mark.parametrize("flag, value, has", [("--hidden-dim", "64", "32"),
                                              ("--t-prop", "1", "5")])
def test_train_rl_refuses_an_architecture_its_init_checkpoint_lacks(
        tmp_path, capsys, flag, value, has):
    ckpt = tmp_path / "sl.ckpt"
    cfg = PolicyConfig()
    save_policy(init_policy_params(cfg), cfg, ckpt, seed=0, training_stage="sl")
    out = tmp_path / "rl"
    rc = run("train", "rl", "--fixture", "--init", str(ckpt), flag, value,
             "--episodes", "1", "--out", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag} {value} differs from the --init checkpoint's {has}\n"
    assert not out.exists()


def test_train_rl_needs_an_initialization(tmp_path, capsys):
    rc = run("train", "rl", "--fixture", "--episodes", "1",
             "--out", str(tmp_path / "rl"))
    assert rc == 1
    assert "--init" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files

def test_config_file_supplies_defaults(sl_run, tmp_path):
    _, _, sl_out = sl_run
    out = tmp_path / "rl"
    config = tmp_path / "rl.json"
    config.write_text(json.dumps({
        "init": str(sl_out / "sl.ckpt"), "episodes": 2, "out": str(out),
    }))
    assert run("train", "rl", "--fixture", "--config", str(config)) == 0
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 3


def test_explicit_flags_beat_the_config_file(sl_run, tmp_path):
    _, _, sl_out = sl_run
    out = tmp_path / "rl"
    config = tmp_path / "rl.json"
    config.write_text(json.dumps({
        "init": str(sl_out / "sl.ckpt"), "episodes": 2, "out": str(out),
    }))
    assert run("train", "rl", "--fixture", "--config", str(config),
               "--episodes", "1") == 0
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2


def test_config_values_parse_like_their_flags(sl_run, tmp_path):
    _, _, sl_out = sl_run
    out = tmp_path / "rl"
    config = tmp_path / "rl.json"
    config.write_text(json.dumps({
        "init": str(sl_out / "sl.ckpt"), "episodes": "2", "lam": 1, "gamma": None,
        "out": str(out),
    }))
    assert run("train", "rl", "--fixture", "--config", str(config)) == 0
    assert len((out / "history.csv").read_text().splitlines()) == 3
    echo = json.loads((out / "config.json").read_text())
    assert echo["episodes"] == 2 and echo["gamma"] == 0.999
    assert echo["lam"] == 1.0 and isinstance(echo["lam"], float)


def test_a_config_value_its_flag_refuses_is_a_usage_error(sl_run, tmp_path, capsys):
    _, _, sl_out = sl_run
    out = tmp_path / "rl"
    config = tmp_path / "rl.json"
    config.write_text(json.dumps({
        "init": str(sl_out / "sl.ckpt"), "episodes": 2.5, "out": str(out),
    }))
    with pytest.raises(SystemExit) as exc:
        run("train", "rl", "--fixture", "--config", str(config))
    assert exc.value.code == 2
    assert "--episodes: invalid int value: '2.5'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [3, [], "episodes"])
def test_a_config_that_is_not_an_object_is_rejected(tmp_path, capsys, doc):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    rc = run("train", "sl", "--fixture", "--config", str(config))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON object" in err


@pytest.mark.parametrize("verb, key", [("sl", "episodes"), ("sl", "init"),
                                       ("rl", "dataset"), ("rl", "from_scratch"),
                                       ("sl", "fixture"), ("rl", "config")])
def test_config_keys_are_checked_against_the_verb(tmp_path, capsys, verb, key):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: "x"}))
    out = tmp_path / "out"
    rc = run("train", verb, "--fixture", "--config", str(config), "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == f"error: unknown config keys for train {verb}: [{key!r}]\n"
    assert not out.exists()


# the value flags of each train verb, by dest: the keys its --config may set
TRAIN_CONFIG_KEYS = {
    "sl": {"dataset", "holdout", "epochs", "alpha_sl", "stop_failure_ratio",
           "hidden_dim", "t_prop", "seed", "out"},
    "rl": {"init", "lam", "episodes", "alpha_rl", "gamma", "epsilon",
           "stop_success_rate", "hidden_dim", "t_prop", "seed", "out"},
}


@pytest.mark.parametrize("verb", ["sl", "rl"])
def test_a_train_config_may_set_exactly_the_verbs_value_flags(tmp_path, capsys, verb):
    config = tmp_path / "c.json"
    # null values keep the defaults, so the run gets past the config and stops
    # at its first missing setting
    config.write_text(json.dumps(dict.fromkeys(TRAIN_CONFIG_KEYS[verb])))
    assert run("train", verb, "--fixture", "--config", str(config)) == 1
    assert capsys.readouterr().err.startswith(f"error: {verb} training needs ")
    dests = vars(build_parser().parse_args(["train", verb, "--fixture"]))
    for key in set(dests) - TRAIN_CONFIG_KEYS[verb]:
        config.write_text(json.dumps({key: None}))
        assert run("train", verb, "--fixture", "--config", str(config)) == 1
        assert capsys.readouterr().err == (f"error: unknown config keys for train {verb}: "
                                           f"[{key!r}]\n")


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"learning_rate": 0.1}))
    rc = run("train", "rl", "--fixture", "--config", str(config),
             "--out", str(tmp_path / "rl"))
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config.json: every run echoes its resolved settings, with {tmp} for tmp_path

SL_ECHO = {"mode": "sl", "dataset": "{tmp}/ds.json", "holdout": "{tmp}/ds.json",
           "topology": "fixture", "pool": None, "hidden_dim": 32, "t_prop": 5, "K": 5,
           "alpha_sl": 0.001, "epochs": 1, "seed": 0, "stop_failure_ratio": None}
RL_ECHO = {"mode": "rl", "init": "{tmp}/sl.ckpt", "from_scratch": False,
           "topologies": "fixture", "lam": 0.0, "alpha_rl": 1e-05, "gamma": 0.999,
           "epsilon": 0.01, "episodes": 2, "stop_success_rate": None, "seed": 0,
           "hidden_dim": 32, "t_prop": 5, "K": 5}


@pytest.mark.parametrize("argv, config, echo", [
    ("train sl --fixture --dataset {tmp}/ds.json --holdout {tmp}/ds.json --epochs 1",
     None, SL_ECHO),
    ("train sl --pool {tmp}/cs1 --dataset {tmp}/pool_ds.json --epochs 1 --seed 3 "
     "--alpha-sl 0.002 --stop-failure-ratio 0.5 --hidden-dim 16 --t-prop 2", None,
     {**SL_ECHO, "dataset": "{tmp}/pool_ds.json", "holdout": None, "topology": None,
      "pool": "{tmp}/cs1", "seed": 3, "alpha_sl": 0.002, "stop_failure_ratio": 0.5,
      "hidden_dim": 16, "t_prop": 2}),
    ("train rl --fixture --init {tmp}/sl.ckpt --episodes 2", None, RL_ECHO),
    ("train rl --pool {tmp}/cs1 --from-scratch --config {tmp}/cfg.json --lambda 1",
     {"episodes": "2", "gamma": None, "t_prop": None, "hidden_dim": "16", "epsilon": 0.5,
      "stop_success_rate": "0.9", "alpha_rl": 0.01, "seed": 4},
     {**RL_ECHO, "init": None, "from_scratch": True, "topologies": "{tmp}/cs1",
      "lam": 1.0, "alpha_rl": 0.01, "epsilon": 0.5, "stop_success_rate": 0.9, "seed": 4,
      "hidden_dim": 16}),
    ("eval --fixture --checkpoint model={tmp}/sl.ckpt {tmp}/sl.ckpt --pool-cs1 {tmp}/cs1 "
     "--pool-cs2 {tmp}/cs2 --requests 2 --seed 2 --chain-max 2 --oracle-row", None,
     {"checkpoints": ["model={tmp}/sl.ckpt", "{tmp}/sl.ckpt"], "topology": "fixture",
      "pool_cs1": "{tmp}/cs1", "pool_cs2": "{tmp}/cs2", "requests": 2, "seed": 2,
      "chain_min": 1, "chain_max": 2, "oracle_row": True}),
], ids=["train-sl-fixture-holdout", "train-sl-pool", "train-rl-init",
        "train-rl-pool-config", "eval-oracle-row"])
def test_config_json_echoes_the_resolved_settings(tmp_path, capsys, argv, config, echo):
    tmp = str(tmp_path)
    for strategy in ("cs1", "cs2"):
        assert run("topo", "pool", "--fixture", "--strategy", strategy, "--count", "2",
                   "--seed", "3", "--out", f"{tmp}/{strategy}") == 0
    assert run("dataset", "--fixture", "--count", "4", "--seed", "1",
               "--chain-max", "2", "--out", f"{tmp}/ds.json") == 0
    assert run("dataset", "--pool", f"{tmp}/cs1", "--count", "4", "--seed", "1",
               "--chain-max", "2", "--out", f"{tmp}/pool_ds.json") == 0
    cfg = PolicyConfig()
    save_policy(init_policy_params(cfg), cfg, tmp_path / "sl.ckpt", seed=0,
                training_stage="sl")
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(*argv.format(tmp=tmp).split(), "--out", str(out)) == 0
    capsys.readouterr()
    # byte for byte, so an int where a float was (or 0 for False) shows too
    written = (out / "config.json").read_text().replace(tmp, "{tmp}")
    assert written == json.dumps(echo, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# solve

def test_solve_prints_path_and_delay(capsys):
    assert run("solve", "--fixture", "--source", "0", "--destination", "11",
               "--chain", "1,2") == 0
    out = capsys.readouterr().out
    assert out.startswith("path: 0 -> ")
    assert "(* = process)" in out
    assert "optimal delay: 42" in out


def test_solve_trivial_request(capsys):
    assert run("solve", "--fixture", "--source", "3", "--destination", "3") == 0
    assert "already at destination" in capsys.readouterr().out


def test_solve_rejects_bad_destination(capsys):
    rc = run("solve", "--fixture", "--source", "0", "--destination", "99")
    assert rc == 1
    assert "not a node" in capsys.readouterr().err


@pytest.mark.parametrize("chain, entry", [("1,x", "'x'"), (",", "''"), ("2,,1", "''")])
def test_solve_names_a_bad_chain_entry(capsys, chain, entry):
    rc = run("solve", "--fixture", "--source", "0", "--destination", "11", "--chain", chain)
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: --chain ")
    assert f"entry {entry}" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# eval

def test_eval_writes_report_with_oracle_row(sl_run, tmp_path, capsys):
    _, _, sl_out = sl_run
    for name, strategy in (("p1", "cs1"), ("p2", "cs2")):
        run("topo", "pool", "--fixture", "--strategy", strategy,
            "--count", "2", "--seed", "7", "--out", str(tmp_path / name))
    out = tmp_path / "eval"
    rc = run("eval", "--fixture",
             "--checkpoint", f"model={sl_out / 'sl.ckpt'}",
             "--pool-cs1", str(tmp_path / "p1"),
             "--pool-cs2", str(tmp_path / "p2"),
             "--requests", "4", "--seed", "2", "--oracle-row",
             "--out", str(out))
    assert rc == 0
    csv = (out / "report.csv").read_text().splitlines()
    assert csv[1].startswith("model,")
    assert csv[2].startswith("oracle,0.0000,1.0000,")
    assert (out / "report.txt").exists()
    assert "approach" in capsys.readouterr().out


def test_eval_refuses_zero_requests_naming_the_count(tmp_path, capsys):
    pool, ckpt, out = tmp_path / "pool", tmp_path / "good.ckpt", tmp_path / "out"
    assert run("topo", "pool", "--fixture", "--strategy", "cs1", "--count", "1",
               "--seed", "3", "--out", str(pool)) == 0
    cfg = PolicyConfig()
    save_policy(init_policy_params(cfg), cfg, ckpt, seed=0, training_stage="sl")
    capsys.readouterr()
    rc = run("eval", "--fixture", "--pool-cs1", str(pool), "--pool-cs2", str(pool),
             "--checkpoint", str(ckpt), "--requests", "0", "--out", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "request count" in err and "0" in err and "Traceback" not in err
    assert not out.exists()


CHECKPOINT_METADATA = {"hidden_dim": 32, "K": 5, "propagation_steps": 5, "seed": 0,
                       "training_stage": "sl", "scorer_variant": "additive-tanh"}


EVAL_POOL = "eval --fixture --pool-cs1 {bad_dir} --pool-cs2 {pool} --checkpoint {ckpt} --out {out}"


def _emptied(manifest):
    return {**manifest, "variant_files": [], "pool_size": 0}


def _nan_tensor(ckpt):
    ckpt["tensors"]["proc.b"]["data"] = [float("nan")]
    return ckpt


def _with_metadata(**change):
    return lambda ckpt: {**ckpt, "metadata": {**ckpt["metadata"], **change}}


# written as the number 1e400, which JSON readers take as inf
HUGE = "<1e400>"

DATASET_TRAIN = "train sl --fixture --dataset {bad} --out {out}"
CHECKPOINT_TRAIN = "train rl --fixture --init {bad} --out {out}"
TOPOLOGY_DATASET = "dataset --topology {bad} --count 2 --out {out}"

FIXTURE_DOC = json.loads(save_topology(internet2_fixture()))
LABELED_DOC = json.loads(save_dataset(label_dataset(internet2_fixture(),
                                                    [SfcRequest(0, 5, (1,))])))


def _fixture_with(field, index, column, value):
    """The fixture's document with one entry of its edges or instances set."""
    rows = [list(row) for row in FIXTURE_DOC[field]]
    rows[index][column] = value
    return {**FIXTURE_DOC, field: rows}


def _example_with(**change):
    """A one-example dataset, labelled on the fixture, with fields changed."""
    return {**LABELED_DOC, "examples": [{**LABELED_DOC["examples"][0], **change}]}


# doc is written as JSON; a str is written as raw text; a callable rewrites
# the good checkpoint (for a .ckpt) or the manifest of a copy of a good pool
@pytest.mark.parametrize("argv, bad_file, doc", [
    ("train sl --fixture --dataset {bad} --out {out}", "d.json",
     {"dropped_infeasible": 0, "dropped_over_budget": 0, "examples": [1]}),
    ("train sl --fixture --dataset {bad} --out {out}", "d.json", [1, 2]),
    ("train rl --fixture --init {bad} --out {out}", "c.ckpt",
     {"metadata": CHECKPOINT_METADATA, "tensors": []}),
    ("eval --fixture --pool-cs1 {pool} --pool-cs2 {pool} --checkpoint {bad} --out {out}",
     "c.ckpt", {"metadata": CHECKPOINT_METADATA, "tensors": []}),
    ("train rl --fixture --init {bad} --out {out}", "c.ckpt",
     {"metadata": {**CHECKPOINT_METADATA, "hidden_dim": None}, "tensors": {}}),
    ("train rl --pool {bad_dir} --from-scratch --out {out}", "bad_pool/manifest.json", [1]),
    (EVAL_POOL, "bad_pool/manifest.json", [1]),
    ("train rl --pool {bad_dir} --from-scratch --out {out}", "bad_pool/manifest.json",
     _emptied),
    (EVAL_POOL + " --requests 2", "bad_pool/manifest.json", _emptied),
    ("dataset --pool {bad_dir} --count 2 --out {out}", "bad_pool/manifest.json", _emptied),
    (EVAL_POOL + " --requests 2", "bad_pool/manifest.json", lambda m: {**m, "pool_size": 2}),
    ("eval --fixture --pool-cs1 {pool} --pool-cs2 {pool} --checkpoint {bad} --out {out}",
     "c.ckpt", "{not json"),
    (EVAL_POOL, "bad_pool/manifest.json", "{not json"),
    ("train sl --fixture --config {bad} --out {out}", "cfg.json", "{not json"),
    ("dataset --topology {bad} --count 2 --out {out}", "t.json", "{not json"),
    ("dataset --topology {bad} --count 2 --out {out}", "t.json",
     {"nodes": HUGE, "vnf_type_count": 5, "edges": [], "instances": []}),
    (EVAL_POOL, "bad_pool/manifest.json", lambda m: {**m, "seed": HUGE}),
    (DATASET_TRAIN, "d.json",
     {"dropped_infeasible": 0, "dropped_over_budget": 0,
      "examples": [{"topology_id": HUGE, "request": {"source": 0, "destination": 1, "chain": []},
                    "action_sequence": [[1, 0]], "optimal_delay": 1}]}),
    (CHECKPOINT_TRAIN, "c.ckpt", {"metadata": {**CHECKPOINT_METADATA, "hidden_dim": HUGE},
                                  "tensors": {}}),
    (DATASET_TRAIN, "d.json", "{not json"),
    (CHECKPOINT_TRAIN, "c.ckpt", _nan_tensor),
    (CHECKPOINT_TRAIN, "c.ckpt", _with_metadata(hidden_dim=40)),
    (CHECKPOINT_TRAIN, "c.ckpt", _with_metadata(hidden_dim=0)),
    (CHECKPOINT_TRAIN, "c.ckpt", _with_metadata(hidden_dim=7)),
    # 728 TiB for one parameter set: the shapes are compared, never allocated
    (CHECKPOINT_TRAIN, "c.ckpt", _with_metadata(hidden_dim=10**7)),
    # 10**9 propagation rounds per encode: --t-prop 5 differs from the
    # checkpoint's, so a loader that accepted it would stop there, never encoding
    (CHECKPOINT_TRAIN + " --t-prop 5", "c.ckpt", _with_metadata(propagation_steps=10**9)),
    (CHECKPOINT_TRAIN, "c.ckpt", _with_metadata(T_prop=2)),
    (CHECKPOINT_TRAIN, "c.ckpt", _with_metadata(scorer_variant="dot")),
    (DATASET_TRAIN, "d.json",
     {"dropped_infeasible": 0, "dropped_over_budget": 0,
      "examples": [{"topology_id": 0, "request": {"source": 0, "destination": 1, "chain": []},
                    "action_sequence": [[1, "false"]], "optimal_delay": 1}]}),
    # each number below used to be truncated (or the string parsed) and loaded
    (CHECKPOINT_TRAIN, "c.ckpt", _with_metadata(hidden_dim=32.7)),
    (CHECKPOINT_TRAIN, "c.ckpt", _with_metadata(propagation_steps=5.9)),
    (TOPOLOGY_DATASET, "t.json", _fixture_with("edges", 0, 2, FIXTURE_DOC["edges"][0][2] + 0.9)),
    (TOPOLOGY_DATASET, "t.json",
     _fixture_with("instances", 0, 2, FIXTURE_DOC["instances"][0][2] + 0.7)),
    (TOPOLOGY_DATASET, "t.json", {**FIXTURE_DOC, "nodes": "12"}),
    (EVAL_POOL + " --requests 2", "bad_pool/manifest.json", lambda m: {**m, "pool_size": 1.0}),
    (DATASET_TRAIN, "d.json",
     _example_with(optimal_delay=LABELED_DOC["examples"][0]["optimal_delay"] + 0.9)),
    (DATASET_TRAIN, "d.json", _example_with(topology_id=0.7)),
    (DATASET_TRAIN, "d.json",
     _example_with(request={**LABELED_DOC["examples"][0]["request"], "chain": [1.5]})),
    (EVAL_POOL, "bad_pool/manifest.json", lambda m: {**m, "strategy": "cs9"}),
    (EVAL_POOL, "bad_pool/manifest.json", lambda m: {**m, "strategy": ["cs1"]}),
    (DATASET_TRAIN, "d.json", {**LABELED_DOC, "dropped_infeasible": -3}),
    (DATASET_TRAIN, "d.json", {**LABELED_DOC, "dropped_over_budget": -1}),
], ids=["dataset-examples", "dataset-list", "train-checkpoint", "eval-checkpoint",
        "checkpoint-metadata", "train-pool", "eval-pool", "train-pool-empty",
        "eval-pool-empty", "dataset-pool-empty", "eval-pool-size", "eval-checkpoint-text",
        "eval-pool-text", "config-text", "topology-text", "topology-overflow",
        "eval-pool-overflow", "dataset-overflow", "checkpoint-overflow", "dataset-text",
        "checkpoint-nan", "checkpoint-shape", "checkpoint-hidden-dim-0",
        "checkpoint-annotation-width", "checkpoint-hidden-dim-huge", "checkpoint-t-prop-huge",
        "checkpoint-t-prop-disagrees", "checkpoint-scorer-variant", "dataset-flag-string",
        "checkpoint-hidden-dim-float", "checkpoint-t-prop-float", "topology-edge-delay-float",
        "topology-proc-delay-float", "topology-nodes-string", "eval-pool-size-float",
        "dataset-optimal-delay-float", "dataset-topology-id-float", "dataset-chain-float",
        "pool-strategy-unknown", "pool-strategy-list", "dataset-dropped-negative",
        "dataset-dropped-over-budget-negative"])
def test_a_malformed_artifact_is_one_error_line(tmp_path, capsys, argv, bad_file, doc):
    pool, ckpt, out = tmp_path / "pool", tmp_path / "good.ckpt", tmp_path / "out"
    assert run("topo", "pool", "--fixture", "--strategy", "cs1", "--count", "1",
               "--seed", "3", "--out", str(pool)) == 0
    cfg = PolicyConfig()
    save_policy(init_policy_params(cfg), cfg, ckpt, seed=0, training_stage="sl")
    bad = tmp_path / bad_file
    if callable(doc):
        if bad.suffix == ".ckpt":
            good = ckpt
        else:
            shutil.copytree(pool, bad.parent)
            good = pool / "manifest.json"
        doc = doc(json.loads(good.read_text()))
    bad.parent.mkdir(exist_ok=True)
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc).replace(f'"{HUGE}"', "1e400"))
    capsys.readouterr()
    rc = run(*argv.format(bad=bad, bad_dir=bad.parent, pool=pool, ckpt=ckpt, out=out).split())
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    # the test's own tmp_path holds the word "malformed", so look outside it
    assert "Traceback" not in err and "malformed" in err.replace(str(tmp_path), "")
    # the line names the bad file, or the pool directory that holds it
    assert str(bad.parent if bad.name == "manifest.json" else bad) in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exp table1

TINY_EXP = (
    "--pool-size", "2", "--dataset-size", "6", "--holdout-size", "3",
    "--sl-epochs", "1", "--episodes", "2", "--episodes-pool", "2",
    "--requests", "3", "--seed", "1",
)


TINY_CONFIG = Table1Config(pool_size=2, dataset_size=6, holdout_size=3, sl_epochs=1,
                           episodes=2, episodes_pool=2, requests=3, seed=1)


def test_exp_table1_pipeline_and_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        report = run_table1(TINY_CONFIG, out)
        assert [row.approach for row in report.rows][:2] == ["SL", "RL(lam=0)"]
        outs.append(out)

    ckpts = {p.name for p in (outs[0] / "checkpoints").iterdir()}
    assert ckpts == {
        "sl.ckpt", "rl_lam0.ckpt", "rl_lam1.ckpt",
        "rl_lam0_cs1.ckpt", "rl_lam1_cs1.ckpt",
        "rl_lam0_cs2.ckpt", "rl_lam1_cs2.ckpt",
    }
    for pool in ("cs1_train", "cs1_test", "cs2_train", "cs2_test"):
        assert (outs[0] / "pools" / pool).is_dir()
    report = (outs[0] / "report.csv").read_text()
    assert report.splitlines()[1].startswith("SL,")

    # same seed, same bytes
    assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()
    assert (outs[0] / "report.txt").read_bytes() == (outs[1] / "report.txt").read_bytes()


def test_exp_table1_validates_rl_seeds(tmp_path, capsys):
    rc = run("exp", "table1", "--out", str(tmp_path / "x"),
             "--rl-seeds", "1,2", *TINY_EXP)
    assert rc == 1
    assert "6 comma-separated" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_exp_table1_refuses_a_seed_that_is_not_an_integer(tmp_path, capsys):
    # --rl-seeds is split by _table1_config, so this is an error, not a usage error
    rc = run("exp", "table1", "--out", str(tmp_path / "x"), "--rl-seeds", "1,x", *TINY_EXP)
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: --rl-seeds '1,x': entry 'x' is not an integer\n"
    assert not (tmp_path / "x").exists()


def test_exp_table1_refuses_a_bad_architecture_before_writing(tmp_path, capsys):
    out = tmp_path / "x"
    rc = run("exp", "table1", "--out", str(out), "--hidden-dim", "4", *TINY_EXP)
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: annotation width 8 (K+3) exceeds hidden_dim 4\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--alpha-sl", "--alpha-rl", "--alpha-rl-pool"])
def test_exp_table1_refuses_a_bad_stage_setting_before_writing(tmp_path, capsys, flag):
    out = tmp_path / "x"
    rc = run("exp", "table1", "--out", str(out), *TINY_EXP, flag, "0")
    assert rc == 1
    assert capsys.readouterr().err == "error: learning rates must be > 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, field, value", [
    ("--requests", "requests", "0"),
    ("--pool-size", "pool_size", "0"),
    ("--dataset-size", "dataset_size", "0"),
    ("--holdout-size", "holdout_size", "-1"),
])
def test_exp_table1_refuses_a_bad_size_before_writing(tmp_path, capsys, flag, field, value):
    out = tmp_path / "x"
    rc = run("exp", "table1", "--out", str(out), *TINY_EXP, flag, value)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert "Traceback" not in err
    assert not out.exists()


def test_exp_table1_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["exp", "table1", "--out", "x"])
    assert _table1_config(args) == Table1Config()
    assert _table1_config(build_parser().parse_args(
        ["exp", "table1", "--out", "x", *TINY_EXP])) == TINY_CONFIG


@pytest.mark.parametrize("field", fields(Table1Config), ids=lambda f: f.name)
def test_each_exp_table1_flag_sets_only_its_field(field):
    if isinstance(field.default, tuple):
        value = tuple(seed + 1 for seed in field.default)
        text = ",".join(map(str, value))
    else:
        value = field.default + 1 if isinstance(field.default, int) else field.default / 2
        text = str(value)
    args = build_parser().parse_args(
        ["exp", "table1", "--out", "x", "--" + field.name.replace("_", "-"), text])
    assert _table1_config(args) == replace(Table1Config(), **{field.name: value})


# ---------------------------------------------------------------------------
# parser plumbing

def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["topo fixture", "topo mutate", "topo pool", "dataset",
                                  "train sl", "train rl", "eval", "solve", "exp table1"])
def test_every_verb_prints_its_help(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        run(*verb.split(), "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ggsfc {verb} [-h]")


def test_exp_table1_help_lists_one_flag_per_config_field(capsys):
    with pytest.raises(SystemExit):
        run("exp", "table1", "--help")
    flags = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags == ["--out", *("--" + f.name.replace("_", "-") for f in fields(Table1Config))]
