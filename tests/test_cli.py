import argparse
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import convrec
from convrec import rules
from convrec.ablation import evaluate_pop
from convrec.checkpoint import load_checkpoint, save_checkpoint
from convrec.cli import SUBCOMMANDS, main
from convrec.config import AP_MODES, HyperParams, Ranking, RunConfig, parse_override_args
from convrec.data import load_split
from convrec.errors import ConfigError
from convrec.evaluate import evaluate, recommend_top_n
from convrec.model import ComponentMask, init_params
from convrec.rules import MiningConfig
from convrec.synthetic import SyntheticSpec, generate_interactions
from convrec.training import train
from tests.conftest import LARGE_HP

training = importlib.import_module("convrec.training")


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    rows = generate_interactions(
        SyntheticSpec(num_users=30, num_items=40, seq_len=12, num_genres=4,
                      num_clusters=2, genres_per_cluster=2, num_special_pairs=2, seed=13)
    )
    path = tmp_path_factory.mktemp("data") / "log.tsv"
    with open(path, "w") as fh:
        for r in rows:
            fh.write(f"{r.user}\t{r.item}\t{int(r.timestamp)}\n")
    return str(path)


@pytest.fixture(scope="module")
def prepared(data_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("prepared")
    code = main([
        "prepare", "--data", data_file, "--set", "min_feedback=1", "--out", str(out),
    ])
    assert code == 0
    return str(out)


BASE = [
    "--set", "min_feedback=1", "--set", "latent_dim=6", "--set", "order=3",
    "--set", "num_targets=1", "--set", "heights=1,2,3", "--set", "num_h_filters=2",
    "--set", "num_v_filters=1", "--set", "epochs=2", "--set", "batch_size=16",
    "--set", "dropout=0.3",
]


def test_prepare_writes_split(prepared):
    import os

    assert os.path.exists(os.path.join(prepared, "split.json"))


def test_train_is_reproducible(prepared, tmp_path, capsys):
    ck1, ck2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    for ck in (ck1, ck2):
        code = main(["train", "--data-dir", prepared, "--checkpoint", ck, "--quiet", "--seed", "42"] + BASE)
        assert code == 0
    assert open(ck1, "rb").read() == open(ck2, "rb").read()
    out = capsys.readouterr().out
    assert "# resolved config" in out
    assert "seed = 42" in out


@pytest.fixture(scope="module")
def checkpoint(prepared, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ck") / "model.ckpt")
    log = path + ".log"
    code = main(["train", "--data-dir", prepared, "--checkpoint", path, "--log", log,
                 "--quiet", "--seed", "7"] + BASE)
    assert code == 0
    return path


def test_train_writes_log_and_config(checkpoint):
    log_lines = open(checkpoint + ".log").read().splitlines()
    assert log_lines[0] == "epoch,train_loss,val_MAP,val_Prec@1,wall_ms"
    assert len(log_lines) == 3
    cfg_text = open(checkpoint + ".cfg").read()
    assert "latent_dim = 6" in cfg_text


def test_evaluate_prints_table_and_csv(prepared, checkpoint, tmp_path, capsys):
    csv_path = str(tmp_path / "report.csv")
    per_user = str(tmp_path / "per_user.tsv")
    code = main(["evaluate", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--csv", csv_path, "--per-user", per_user])
    assert code == 0
    out = capsys.readouterr().out
    assert "MAP" in out and "Prec@1" in out
    header = open(csv_path).read().splitlines()[0]
    assert header.startswith("prec@1,")
    pu = open(per_user).read().splitlines()
    assert pu[0].startswith("user\tAP\thits@")
    assert len(pu) > 1


def test_evaluate_structural_mismatch_fails(prepared, checkpoint, capsys):
    code = main(["evaluate", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--set", "latent_dim=32"])
    assert code == 1
    assert "shape mismatch, checkpoint has latent_dim=6 but run config wants latent_dim=32" in capsys.readouterr().err


def test_evaluate_ignores_shape_keys_the_config_leaves_unset(prepared, checkpoint):
    """The checkpoint has order=3; the default order (5) is not set, so it is not compared."""
    assert main(["evaluate", "--data-dir", prepared, "--checkpoint", checkpoint, "--set", "latent_dim=6"]) == 0
    assert main(["evaluate", "--data-dir", prepared, "--checkpoint", checkpoint, "--set", "order=3"]) == 0


def test_evaluate_ignores_explicit_keys_that_fix_no_shape(prepared, checkpoint):
    assert main(["evaluate", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--set", "dropout=0.9", "--set", "lr=123.0"]) == 0


def test_recommend_lists_items(prepared, checkpoint, capsys):
    code = main(["recommend", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--user", "u1", "--N", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    rank, item, score = lines[0].split("\t")
    assert rank == "1" and item.startswith("i")
    float(score)


def test_recommend_structural_mismatch_fails(prepared, checkpoint, capsys):
    code = main(["recommend", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--user", "u1", "--set", "latent_dim=32"])
    assert code == 1
    assert "shape mismatch" in capsys.readouterr().err


def test_recommend_unknown_user(prepared, checkpoint, capsys):
    code = main(["recommend", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--user", "nobody", "--N", "3"])
    assert code == 1
    assert "unknown user" in capsys.readouterr().err


def test_recommend_padding_slot_names_no_user(prepared, checkpoint, capsys):
    # slot 0 of the user ids is the unused padding entry ""
    code = main(["recommend", "--data-dir", prepared, "--checkpoint", checkpoint, "--user", ""])
    assert code == 1
    assert _one_error_line(capsys) == "error: unknown user id ''"


def test_recommend_finds_a_real_empty_user_id(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("".join(f"{user},i{(n + k) % 12},{k}\n" for n, user in enumerate(["", "a", "b"]) for k in range(8)))
    data, ck = str(tmp_path / "data"), str(tmp_path / "m.ckpt")
    assert main(["prepare", "--data", str(log), "--set", "format=csv", "--set", "min_feedback=1", "--out", data]) == 0
    assert main(["train", "--data-dir", data, "--checkpoint", ck, "--quiet"] + BASE) == 0
    capsys.readouterr()
    assert main(["recommend", "--data-dir", data, "--checkpoint", ck, "--user", "", "--N", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_recommend_finds_each_user_whose_id_is_part_of_another(tmp_path, capsys):
    users = ["11", "1", "211", "21", "\u00e9", "2"]
    log = tmp_path / "log.tsv"
    log.write_text("".join(f"{user}\ti{(3 * n + k) % 12}\t{k}\n" for n, user in enumerate(users) for k in range(8)),
                   encoding="utf-8")
    data, ck = str(tmp_path / "data"), str(tmp_path / "m.ckpt")
    assert main(["prepare", "--data", str(log), "--set", "min_feedback=1", "--out", data]) == 0
    assert main(["train", "--data-dir", data, "--checkpoint", ck, "--quiet"] + BASE) == 0
    split = load_split(str(Path(data) / "split.json"))
    params, hp = load_checkpoint(ck)
    for slot, user in enumerate(users, start=1):  # users are numbered in order of first appearance
        capsys.readouterr()
        assert main(["recommend", "--data-dir", data, "--checkpoint", ck, "--user", user, "--N", "3"]) == 0
        ranked = recommend_top_n(params, hp, split.train[slot] + split.validation[slot] + split.test[slot], slot, 3)
        assert capsys.readouterr().out == "".join(
            f"{rank}\t{split.item_ids[item]}\t{score:.6f}\n"
            for rank, (item, score) in enumerate(zip(ranked.items, ranked.scores), start=1))


@pytest.fixture(scope="module")
def train_only(tmp_path_factory):
    """20 users of 3 items each: with min_feedback=1 every user splits to its training part only."""
    out = tmp_path_factory.mktemp("train_only")
    (out / "log.tsv").write_text("".join(f"u{u}\ti{(u + k) % 7}\t{k}\n" for u in range(20) for k in range(3)))
    assert main(["prepare", "--data", str(out / "log.tsv"), "--set", "min_feedback=1", "--out", str(out)]) == 0
    return str(out)


def test_evaluate_with_no_held_out_items_exits_1(train_only, tmp_path, capsys):
    ck = str(tmp_path / "m.ckpt")
    assert main(["train", "--data-dir", train_only, "--checkpoint", ck, "--quiet"] + BASE) == 0
    capsys.readouterr()
    assert main(["evaluate", "--data-dir", train_only, "--checkpoint", ck]) == 1
    assert _one_error_line(capsys) == "error: no users with a nonempty test part"


def test_ablate_pop_with_no_held_out_items_exits_1(train_only, capsys):
    assert main(["ablate", "--data-dir", train_only, "--masks", "pop"] + BASE) == 1
    assert _one_error_line(capsys) == "error: no users with a nonempty test part"


def _count_calls(monkeypatch, where: str, real=train) -> list:
    """Patch ``where`` to record each call before it runs ``real`` (train by default)."""
    calls = []
    monkeypatch.setattr(where, lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_ablate_with_no_held_out_items_exits_1_before_training(train_only, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "convrec.ablation.train")
    assert main(["ablate", "--data-dir", train_only, "--masks", "pvh,pop"] + BASE) == 1
    assert _one_error_line(capsys) == "error: no users with a nonempty test part"
    assert calls == []


@pytest.mark.parametrize("masks", ["q", "pvh,q"])
def test_ablate_bad_mask_code_exits_2_before_training(prepared, capsys, monkeypatch, masks):
    calls = _count_calls(monkeypatch, "convrec.ablation.train")
    assert main(["ablate", "--data-dir", prepared, "--masks", masks] + BASE) == 2
    assert _one_error_line(capsys) == "config error: mask code must use letters p, v, h; got 'q'"
    assert calls == []


@pytest.mark.parametrize("masks", [",", "", " , "])
def test_ablate_without_masks_exits_2_before_reading_the_split(tmp_path, capsys, masks):
    assert main(["ablate", "--data-dir", str(tmp_path / "missing"), "--masks", masks] + BASE) == 2
    assert _one_error_line(capsys) == "config error: no mask codes given"


def test_prepare_without_data_exits_2(tmp_path, capsys):
    assert main(["prepare", "--out", str(tmp_path / "none")]) == 2
    assert "--data" in _one_error_line(capsys)
    assert not (tmp_path / "none").exists()


def _one_output_error(capsys) -> str:
    """The one stderr line of a run that could not write an output: exit 1 and no traceback."""
    line = _one_error_line(capsys)
    assert line.startswith("error: ") and "Traceback" not in line
    return line


@pytest.mark.parametrize("flag", ["--checkpoint", "--log"])
def test_train_into_a_missing_directory_exits_1_before_training(prepared, tmp_path, capsys, monkeypatch, flag):
    calls = _count_calls(monkeypatch, "convrec.cli.train")
    ck, out = tmp_path / "m.ckpt", tmp_path / "missing" / "out"
    paths = {"--checkpoint": str(ck), flag: str(out)}  # the flag under test writes into the missing directory
    assert main(["train", "--data-dir", prepared, "--quiet", *itertools.chain(*paths.items())] + BASE) == 1
    assert _one_output_error(capsys) == f"error: {out}: directory {out.parent} does not exist"
    assert calls == [] and not ck.exists()


def test_train_that_cannot_write_its_config_file_exits_1(prepared, tmp_path, capsys):
    ck = tmp_path / "m.ckpt"
    Path(str(ck) + ".cfg").mkdir()  # a directory where the .cfg file goes
    assert main(["train", "--data-dir", prepared, "--checkpoint", str(ck), "--quiet"] + BASE) == 1
    assert _one_output_error(capsys).startswith(f"error: {ck}.cfg: ")
    assert not ck.exists()  # no checkpoint is left without the config it was trained with


@pytest.mark.parametrize("flag", ["--csv", "--per-user"])
def test_evaluate_into_a_missing_directory_exits_1(prepared, checkpoint, tmp_path, capsys, monkeypatch, flag):
    calls = _count_calls(monkeypatch, "convrec.cli.evaluate", evaluate)
    out = tmp_path / "missing" / "out"
    assert main(["evaluate", "--data-dir", prepared, "--checkpoint", checkpoint, flag, str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: directory {out.parent} does not exist\n")
    assert calls == []


def test_mine_rules_into_a_missing_directory_exits_1(prepared, tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "convrec.rules.mine_rules", rules.mine_rules)
    out = tmp_path / "missing" / "rules.csv"
    assert main(["mine-rules", "--data-dir", prepared, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: directory {out.parent} does not exist\n")
    assert calls == []


def test_ablate_into_a_missing_directory_exits_1_before_training(prepared, tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "convrec.ablation.train")
    out = tmp_path / "missing" / "ablation.csv"
    assert main(["ablate", "--data-dir", prepared, "--masks", "pop,p", "--out", str(out)] + BASE) == 1
    assert _one_output_error(capsys) == f"error: {out}: directory {out.parent} does not exist"
    assert calls == []


def test_prepare_into_a_file_exits_1(data_file, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "data"
    assert main(["prepare", "--data", data_file, "--set", "min_feedback=1", "--out", str(out)]) == 1
    assert _one_output_error(capsys) == f"error: {out}: Not a directory"


def test_grad_check_into_a_closed_pipe_prints_no_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(convrec.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "convrec.cli", "grad-check"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the report is printed
    err = proc.stderr.read()
    assert proc.wait() == 1 and err == b""


def test_mine_rules_csv_and_intensity(prepared, tmp_path, capsys):
    out_csv = str(tmp_path / "rules.csv")
    code = main(["mine-rules", "--data-dir", prepared, "--minsup", "2",
                 "--minconf", "0.3", "--max-skip", "1", "--out", out_csv])
    assert code == 0
    assert "SI=" in capsys.readouterr().out
    header = open(out_csv).read().splitlines()[0]
    assert header == "antecedent,consequent,skip,support,confidence"


def test_mine_rules_mines_once_with_the_si_setting(prepared, tmp_path, capsys, monkeypatch):
    calls = []
    mine = rules.mine_rules
    monkeypatch.setattr(rules, "mine_rules", lambda seqs, cfg: calls.append(cfg) or mine(seqs, cfg))
    si = []
    for flags, mined in (([], [MiningConfig()]), (["--minsup", "2"], [MiningConfig(minsup=2), MiningConfig()])):
        calls.clear()
        assert main(["mine-rules", "--data-dir", prepared, "--out", str(tmp_path / "rules.csv")] + flags) == 0
        assert calls == mined
        si.append(re.search(r" SI=(\S+)$", capsys.readouterr().out).group(1))
    assert si[0] == si[1]  # SI uses the paper's setting whatever the flags


def test_ablate_produces_table(prepared, tmp_path, capsys):
    out_csv = str(tmp_path / "ablation.csv")
    code = main(["ablate", "--data-dir", prepared, "--masks", "pop,p", "--out", out_csv] + BASE)
    assert code == 0
    lines = open(out_csv).read().strip().splitlines()
    assert lines[0] == "mask,MAP,Prec@1,epochs,seed"
    assert lines[1].startswith("pop,") and lines[2].startswith("p,")


def _run_config(args) -> RunConfig:
    """The RunConfig that a list of --set flags resolves to."""
    return RunConfig.from_sources(None, parse_override_args(args[1::2]))


@pytest.mark.parametrize("key, pop_kwargs", [("ap_mode=paper_literal", dict(ap_mode="paper_literal")),
                                             ("exclude_seen=false", dict(exclude_seen=False)),
                                             ("eval_n=5,10", {})])
def test_ablate_pop_row_follows_the_metric_keys(prepared, tmp_path, key, pop_kwargs):
    out_csv = str(tmp_path / "ablation.csv")
    assert main(["ablate", "--data-dir", prepared, "--masks", "pop", "--out", out_csv, "--set", key] + BASE) == 0
    split = load_split(str(Path(prepared) / "split.json"))
    want, default = evaluate_pop(split, Ranking(**pop_kwargs)), evaluate_pop(split)
    # ap_mode and exclude_seen change the metric on this corpus; cutoffs without 1 still report Prec@1
    assert (want.mean_ap != default.mean_ap) == bool(pop_kwargs)
    assert open(out_csv).read().splitlines()[1] == f"pop,{want.mean_ap:.6f},{want.precision[1]:.6f},0,42"


def test_ablate_trains_with_exclude_history_negatives(prepared, tmp_path):
    out_csv = str(tmp_path / "ablation.csv")
    flags = ["--set", "exclude_history_negatives=true"] + BASE
    assert main(["ablate", "--data-dir", prepared, "--masks", "p", "--out", out_csv] + flags) == 0
    cfg, split = _run_config(flags), load_split(str(Path(prepared) / "split.json"))
    result = train(split, cfg.hyperparams(), seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size,
                   patience=cfg.patience, comp_mask=ComponentMask.from_code("p"), exclude_history_negatives=True)
    want = evaluate(result.params, cfg.hyperparams(), split, comp_mask=ComponentMask.from_code("p"))
    assert open(out_csv).read().splitlines()[1].startswith(f"p,{want.mean_ap:.6f},{want.precision[1]:.6f},")


def test_grad_check_command(capsys):
    code = main(["grad-check", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out and "[ok]" in out


@pytest.mark.parametrize("step", ["nan", "0"])
def test_grad_check_bad_step_exits_2(capsys, step):
    assert main(["grad-check", "--step", step]) == 2
    assert capsys.readouterr().err.startswith("config error: step must be")


@pytest.mark.parametrize("flag, value", [("--minsup", "0"), ("--minconf", "1.5"), ("--max-order", "0"),
                                         ("--max-skip", "-1")])
def test_mine_rules_bad_flag_exits_2(prepared, capsys, flag, value):
    assert main(["mine-rules", "--data-dir", prepared, flag, value]) == 2
    assert _one_error_line(capsys).startswith("config error: ")


def test_inspect_filters_exact_roundtrip(checkpoint, capsys):
    code = main(["inspect", "--checkpoint", checkpoint, "--filters"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "filter,position,weight"
    params, hp = load_checkpoint(checkpoint)
    values = {}
    for line in lines[1:]:
        k, pos, w = line.split(",")
        values[(int(k), int(pos))] = float(w)
    for k in range(hp.num_v_filters):
        for pos in range(1, hp.order + 1):
            assert values[(k, pos)] == params.v_filters[k, pos - 1]  # exact


SWEEP_BASE = [  # heights left empty so they track the swept order
    "--set", "min_feedback=1", "--set", "num_targets=1", "--set", "num_h_filters=2",
    "--set", "num_v_filters=1", "--set", "epochs=2", "--set", "batch_size=16",
]


def test_sweep_reports_best(prepared, capsys):
    code = main(["sweep", "--data-dir", prepared, "--grid", "latent_dim=4,6",
                 "--grid", "order=2,3"] + SWEEP_BASE)
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    table = out[out.index("val_MAP,best_epoch,latent_dim,order"):]
    assert len(table) == 6  # header + 4 combos + best line
    assert table[-1].startswith("best: ")


def test_sweep_parallel_jobs(prepared, capsys):
    code = main(["sweep", "--data-dir", prepared, "--jobs", "2",
                 "--grid", "latent_dim=4,6"] + SWEEP_BASE)
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    table = out[out.index("val_MAP,best_epoch,latent_dim"):]
    assert len(table) == 4  # header + 2 combos + best


def test_sweep_thread_cap_env(prepared, capsys, monkeypatch):
    monkeypatch.setenv("CASER_THREADS", "1")
    code = main(["sweep", "--data-dir", prepared, "--jobs", "8",
                 "--grid", "latent_dim=4"] + SWEEP_BASE)
    assert code == 0  # env cap forces the serial path


def test_sweep_checks_every_trial_config_before_the_first_trial(prepared, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "convrec.cli.train")
    assert main(["sweep", "--data-dir", prepared, "--grid", "latent_dim=8,0"] + SWEEP_BASE) == 2
    assert calls == []
    assert "latent_dim" in _one_error_line(capsys)


@pytest.mark.parametrize("spec", ["latent_dim=", "latent_dim=,"])
def test_sweep_grid_key_without_values_exits_2(prepared, capsys, monkeypatch, spec):
    calls = _count_calls(monkeypatch, "convrec.cli.train")
    assert main(["sweep", "--data-dir", prepared, "--grid", spec] + SWEEP_BASE) == 2
    assert _one_error_line(capsys) == "config error: --grid latent_dim has no values"
    assert calls == []


@pytest.mark.parametrize("data_dir, grid, line", [
    (False, ["--grid", "lr=0.1"], "sweep requires --data-dir (run prepare first)"),
    (True, ["--grid", "lr"], "--grid expects key=v1,v2,... got 'lr'"),
    (True, [], "sweep needs at least one --grid key=v1,v2"),
])
def test_sweep_without_a_data_dir_or_a_grid_exits_2(prepared, capsys, monkeypatch, data_dir, grid, line):
    calls = _count_calls(monkeypatch, "convrec.cli.train")
    assert main(["sweep", *(["--data-dir", prepared] if data_dir else []), *grid] + SWEEP_BASE) == 2
    assert _one_error_line(capsys) == f"config error: {line}"
    assert calls == []


def test_sweep_ranks_trials_by_the_metric_keys(prepared, capsys):
    assert main(["sweep", "--data-dir", prepared, "--grid", "ap_mode=standard,paper_literal"] + SWEEP_BASE) == 0
    out = capsys.readouterr().out.splitlines()
    header = out.index("val_MAP,best_epoch,ap_mode")
    cfg, split = _run_config(SWEEP_BASE), load_split(str(Path(prepared) / "split.json"))
    want = [train(split, cfg.hyperparams(), seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size,
                  patience=cfg.patience, ranking=Ranking(ap_mode=mode)) for mode in ("standard", "paper_literal")]
    assert want[0].best_val_map != want[1].best_val_map
    assert out[header + 1 : header + 3] == [f"{want[0].best_val_map:.6f},{want[0].best_epoch},standard",
                                            f"{want[1].best_val_map:.6f},{want[1].best_epoch},paper_literal"]


def test_sweep_trial_trains_with_exclude_history_negatives(prepared, capsys):
    assert main(["sweep", "--data-dir", prepared, "--grid", "exclude_history_negatives=true"] + SWEEP_BASE) == 0
    out = capsys.readouterr().out.splitlines()
    row = out[out.index("val_MAP,best_epoch,exclude_history_negatives") + 1]
    cfg, split = _run_config(SWEEP_BASE), load_split(str(Path(prepared) / "split.json"))
    runs = {flag: train(split, cfg.hyperparams(), seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size,
                        patience=cfg.patience, exclude_history_negatives=flag) for flag in (False, True)}
    assert runs[True].best_val_map != runs[False].best_val_map  # the key changes training on this corpus
    assert row == f"{runs[True].best_val_map:.6f},{runs[True].best_epoch},true"


def test_unknown_config_key_exits_2(capsys):
    code = main(["train", "--checkpoint", "/tmp/x.ckpt", "--set", "nonsense=1"])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_bad_flags_exit_2(capsys):
    assert main(["train"]) == 2  # missing --checkpoint
    assert main(["definitely-not-a-command"]) == 2


def test_missing_data_is_config_error(tmp_path, capsys):
    code = main(["train", "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 2
    assert "data" in capsys.readouterr().err


def test_exclude_history_flag(prepared, tmp_path):
    ck = str(tmp_path / "hist.ckpt")
    code = main(["train", "--data-dir", prepared, "--checkpoint", ck,
                 "--exclude-history", "--quiet", "--seed", "3"] + BASE)
    assert code == 0
    assert "exclude_history_negatives = true" in open(ck + ".cfg").read()


def test_config_file_roundtrip(data_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny run\ndata = {}\nmin_feedback = 1\nlatent_dim = 4\norder = 2\n"
        "heights = 1,2\nnum_h_filters = 1\nnum_v_filters = 1\nepochs = 1\n"
        "num_targets = 1\nbatch_size = 8\n".format(data_file)
    )
    ck = str(tmp_path / "from_cfg.ckpt")
    code = main(["train", "--config", str(cfg), "--checkpoint", ck, "--quiet"])
    assert code == 0
    _, hp = load_checkpoint(ck)
    assert hp.latent_dim == 4 and hp.order == 2


def _comma_ints(low: int, min_size: int):
    return st.lists(st.integers(low, 50), min_size=min_size, max_size=4).map(lambda xs: ",".join(map(str, xs)))


def _config_values(key: str):
    """Values that RunConfig.apply accepts for the key, as config-file text."""
    special = {
        "data": st.text(alphabet="abcXYZ019/._- ", max_size=12),
        "format": st.sampled_from(["tsv", "csv"]),
        "ap_mode": st.sampled_from(AP_MODES),
        "heights": _comma_ints(1, 0),
        "eval_n": _comma_ints(1, 1),
        "seed": st.integers(0, 2**32).map(str),
    }
    if key in special:
        return special[key]
    default = RunConfig.DEFAULTS[key]
    if isinstance(default, bool):
        return st.sampled_from(["true", "false", "yes", "no", "1", "0", "on", "off"])
    if isinstance(default, int):
        return st.integers(1, 10**9).map(str)
    return st.floats().map(repr)


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "run.cfg"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_resolved_config_text_reads_back_to_the_same_config(config_file, data):
    keys = data.draw(st.lists(st.sampled_from(tuple(RunConfig.DEFAULTS)), unique=True))
    cfg = RunConfig.from_sources(overrides={key: data.draw(_config_values(key)) for key in keys})
    config_file.write_text(cfg.resolved_text(), encoding="utf-8")
    again = RunConfig.from_sources(str(config_file))
    assert again.to_pairs() == cfg.to_pairs()
    assert again.resolved_text() == cfg.resolved_text()


def test_recommend_rejects_n_below_one(prepared, checkpoint, capsys):
    code = main(["recommend", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--user", "u1", "--N", "0"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--N" in err[0]


@pytest.mark.parametrize("value", ["0", "a", "5,,10", ""])
def test_bad_eval_n_exits_2(prepared, checkpoint, capsys, value):
    code = main(["evaluate", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--set", f"eval_n={value}"])
    assert code == 2
    assert "eval_n" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lr", "l2", "dropout"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_hyperparameter_exits_2(prepared, tmp_path, capsys, key, value):
    code = main(["train", "--data-dir", prepared, "--checkpoint", str(tmp_path / "x.ckpt"),
                 "--quiet"] + BASE + ["--set", f"{key}={value}"])
    assert code == 2
    assert f"{key} must be finite" in capsys.readouterr().err


def test_zero_batch_size_exits_2(prepared, tmp_path, capsys):
    code = main(["train", "--data-dir", prepared, "--checkpoint", str(tmp_path / "x.ckpt"),
                 "--quiet"] + BASE + ["--set", "batch_size=0"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "batch_size" in err[0]


@pytest.mark.parametrize("value", ["a", "1,,2", "1;2"])
def test_bad_heights_exit_2(prepared, tmp_path, capsys, value):
    code = main(["train", "--data-dir", prepared, "--checkpoint", str(tmp_path / "x.ckpt"),
                 "--quiet"] + BASE + ["--set", f"heights={value}"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "heights" in err[0]


@pytest.mark.parametrize("args, word", [
    (["--seed", "-1"], "seed"), (["--set", "seed=-1"], "seed"), (["--set", "epochs=0"], "epochs"),
    (["--set", "patience=0"], "patience"), (["--set", "patience=-3"], "patience"),
    (["--set", "num_targets=0"], "num_targets"), (["--set", "heights=9"], "height"),
    (["--set", "num_h_filters=0"], "filter counts"), (["--set", "dropout=1"], "dropout"), (["--set", "l2=-1"], "l2"),
    (["--set", "lr=-1"], "lr"), (["--set", "num_negatives=0"], "num_negatives"), (["--set", "epochs=abc"], "epochs"),
    (["--set", "foo"], "key=value"),
])
def test_out_of_range_training_keys_exit_2(prepared, tmp_path, capsys, args, word):
    ckpt = tmp_path / "x.ckpt"
    code = main(["train", "--data-dir", prepared, "--checkpoint", str(ckpt), "--quiet"] + BASE + args)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error") and word in err[0]
    assert not ckpt.exists()


@pytest.mark.parametrize("key, value", [("format", "xml"), ("min_feedback", "0"), ("min_feedback", "-2")])
def test_bad_pipeline_keys_exit_2(data_file, tmp_path, capsys, key, value):
    out = tmp_path / "out"
    code = main(["prepare", "--data", data_file, "--out", str(out), "--set", f"{key}={value}"])
    assert code == 2
    line = _one_error_line(capsys)
    assert line.startswith("config error") and key in line
    assert not out.exists()


def test_bad_ap_mode_exits_2(prepared, checkpoint, capsys):
    code = main(["evaluate", "--data-dir", prepared, "--checkpoint", checkpoint, "--set", "ap_mode=literal"])
    assert code == 2
    line = _one_error_line(capsys)
    assert line.startswith("config error") and "ap_mode" in line


# --------------------------------------------------------------------------
# config keys

def test_run_config_defaults_are_hyperparams_defaults():
    assert RunConfig().hyperparams() == HyperParams()


def test_run_config_defaults_are_ranking_defaults():
    assert RunConfig().ranking() == Ranking()


@pytest.mark.parametrize("fields", [dict(cutoffs=()), dict(cutoffs=(0,)), dict(cutoffs=(-3,)), dict(ap_mode="x")])
def test_ranking_rejects_bad_keys(fields):
    with pytest.raises(ConfigError, match="ap_mode" if "ap_mode" in fields else "cutoffs"):
        Ranking(**fields)


def test_ranking_keeps_a_repeated_cutoff_once():
    assert Ranking(cutoffs=(5, 1, 5)).cutoffs == (5, 1)


def test_default_resolved_config_text_is_unchanged():
    assert RunConfig().resolved_text() == (
        "data = \nformat = tsv\nmin_feedback = 5\nlatent_dim = 50\norder = 5\nnum_targets = 3\nheights = \n"
        "num_h_filters = 16\nnum_v_filters = 4\nconv_act = relu\nfc_act = relu\nvertical_act = identity\n"
        "dropout = 0.5\nl2 = 1e-06\nlr = 0.001\nnum_negatives = 3\nnegatives_per_instance = false\n"
        "exclude_history_negatives = false\nexclude_seen = true\nbatch_size = 100\nepochs = 30\npatience = 5\n"
        "seed = 42\neval_n = 1,5,10\nap_mode = standard\n"
    )


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config keys\n", 1)[1].split("\n## ", 1)[0]
    # each bullet names its keys after the colon; continuation lines are indented
    lists = re.findall(r"^- [^:]*:(.*(?:\n  .*)*)", section, re.M)
    named = re.findall(r"`(\w+)`", "".join(lists))
    assert sorted(named) == sorted(RunConfig.DEFAULTS)


# --------------------------------------------------------------------------
# input files and checkpoints that do not fit the split

def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return err[0]


@pytest.mark.parametrize("exc", [  # the first has the text of numpy's error for an array it cannot allocate
    MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and data type float64"),
    MemoryError()], ids=["numpy", "bare"])
def test_memory_error_is_one_error_line(exc, monkeypatch, capsys):
    # an allocation that gets past every size check: one line and exit 1, no traceback
    def load_checkpoint(path):
        raise exc

    monkeypatch.setattr("convrec.cli.load_checkpoint", load_checkpoint)
    assert main(["inspect", "--checkpoint", "model.ckpt"]) == 1
    assert _one_error_line(capsys) == (f"error: {exc}" if str(exc) else "error: out of memory")


@pytest.mark.parametrize("command", ["evaluate", "recommend"])
@pytest.mark.parametrize("extra_users,extra_items", [(0, 30), (0, -1), (5, 0)])
def test_checkpoint_for_another_split_exits_1(prepared, tmp_path, capsys, command, extra_users, extra_items):
    split = load_split(str(Path(prepared) / "split.json"))
    hp = HyperParams(latent_dim=6, order=3, num_targets=1, heights=(1, 2, 3),
                     num_h_filters=2, num_v_filters=1)
    params = init_params(hp, split.user_count + extra_users, split.item_count + extra_items,
                         np.random.default_rng(0))
    ckpt = str(tmp_path / "other.ckpt")
    save_checkpoint(ckpt, params, hp)
    args = ["--user", split.user_ids[1]] if command == "recommend" else []
    code = main([command, "--data-dir", prepared, "--checkpoint", ckpt] + args)
    assert code == 1
    line = _one_error_line(capsys)
    assert line.startswith("error: ") and "the split" in line


def test_missing_data_log_exits_1(tmp_path, capsys):
    code = main(["prepare", "--data", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert _one_error_line(capsys) == f"error: {tmp_path / 'nope.tsv'}: No such file or directory"


def test_non_utf8_data_log_exits_1(tmp_path, capsys):
    log = tmp_path / "utf16.tsv"
    log.write_bytes("u1\ti1\t1\n".encode("utf-16"))  # starts with the bytes ff fe
    code = main(["prepare", "--data", str(log), "--out", str(tmp_path / "out")])
    assert code == 1
    assert _one_error_line(capsys).startswith(f"error: {log}: not UTF-8 text")


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.cfg"), "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 2
    assert _one_error_line(capsys).startswith("config error: ")


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe")
    code = main(["train", "--config", str(cfg), "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 2
    assert _one_error_line(capsys).startswith(f"config error: {cfg}: not UTF-8 text")


def test_config_file_line_without_equals_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("latent_dim = 4\norder\n", encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 2
    assert _one_error_line(capsys) == f"config error: {cfg}:2: expected 'key = value', got 'order'"


def test_missing_split_exits_1(tmp_path, capsys):
    code = main(["train", "--data-dir", str(tmp_path), "--checkpoint", str(tmp_path / "x.ckpt"), "--quiet"])
    assert code == 1
    assert "split.json" in _one_error_line(capsys)


def test_missing_checkpoint_exits_1(prepared, tmp_path, capsys):
    code = main(["evaluate", "--data-dir", prepared, "--checkpoint", str(tmp_path / "nope.ckpt")])
    assert code == 1
    assert "nope.ckpt" in _one_error_line(capsys)


def _corrupt_split(prepared, tmp_path, rewrite_split, corrupt) -> str:
    rewrite_split(Path(prepared) / "split.json", tmp_path / "split.json", corrupt)
    return str(tmp_path)


def test_split_without_train_exits_1(prepared, tmp_path, capsys, rewrite_split):
    data_dir = _corrupt_split(prepared, tmp_path, rewrite_split,
                              lambda header, sections: [sections.pop("train_offsets"), sections.pop("train")])
    code = main(["train", "--data-dir", data_dir, "--checkpoint", str(tmp_path / "x.ckpt"), "--quiet"] + BASE)
    assert code == 1
    line = _one_error_line(capsys)
    assert str(tmp_path / "split.json") in line and "bytes" in line


def test_split_item_past_item_count_exits_1(prepared, tmp_path, capsys, rewrite_split):
    def corrupt(header, sections):
        sections["train"][0] = header["items"] + 1

    data_dir = _corrupt_split(prepared, tmp_path, rewrite_split, corrupt)
    ckpt = tmp_path / "x.ckpt"
    code = main(["train", "--data-dir", data_dir, "--checkpoint", str(ckpt), "--quiet"] + BASE)
    assert code == 1
    assert "item id" in _one_error_line(capsys)
    assert not ckpt.exists()


def test_split_with_item_zero_exits_1(prepared, tmp_path, capsys, rewrite_split):
    def corrupt(header, sections):  # 0 is the padding index, never an item
        sections["train"][1] = 0

    data_dir = _corrupt_split(prepared, tmp_path, rewrite_split, corrupt)
    code = main(["mine-rules", "--data-dir", data_dir, "--out", str(tmp_path / "rules.csv")])
    assert code == 1
    assert "item id" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["train", "evaluate", "recommend"])
def test_json_split_exits_1_naming_prepare(prepared, checkpoint, tmp_path, capsys, command):
    """A split.json in the JSON format of earlier versions is refused with one line."""
    split = load_split(str(Path(prepared) / "split.json"))
    keys = ("user_count", "item_count", "user_ids", "item_ids", "train", "validation", "test")
    (tmp_path / "split.json").write_text(
        json.dumps({k: getattr(split, k) if k.endswith("_count") else list(getattr(split, k)) for k in keys}))
    args = {"train": ["--checkpoint", str(tmp_path / "x.ckpt"), "--quiet"] + BASE,
            "evaluate": ["--checkpoint", checkpoint],
            "recommend": ["--checkpoint", checkpoint, "--user", split.user_ids[1]]}[command]
    code = main([command, "--data-dir", str(tmp_path)] + args)
    assert code == 1
    line = _one_error_line(capsys)
    assert line.startswith("error: ") and "convrec prepare" in line
    assert not (tmp_path / "x.ckpt").exists()


HELP_SNAPSHOT = Path(__file__).with_name("cli_help.json")


def test_help_outputs_are_unchanged(capsys, monkeypatch):
    """Every --help text, byte for byte, as the parser that declared every option wrote it (80 columns)."""
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(HELP_SNAPSHOT.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(["convrec", *SUBCOMMANDS])
    for name, text in expected.items():
        assert main(([] if name == "convrec" else [name]) + ["--help"]) == 0
        assert capsys.readouterr().out == text, name


_TOP_USAGE = ("usage: convrec [-h]\n"
              "               {prepare,train,evaluate,recommend,mine-rules,ablate,grad-check,inspect,sweep}\n"
              "               ...\n")


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'prepare', 'train', 'evaluate', "
                "'recommend', 'mine-rules', 'ablate', 'grad-check', 'inspect', 'sweep')"),
    (["evaluate", "--checkpoint", "x", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_top_level_usage_errors_list_every_subcommand(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 2
    assert capsys.readouterr().err == _TOP_USAGE + f"convrec: error: {message}\n"


def test_a_call_named_by_its_subcommand_builds_only_that_parser(tmp_path, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    assert main(["inspect", "--checkpoint", str(tmp_path / "missing.ckpt")]) == 1
    assert built == ["convrec", "convrec inspect"]


@pytest.mark.parametrize("command", ["train", "ablate", "evaluate"])
def test_non_integer_thread_cap_exits_2_before_training(prepared, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("CASER_THREADS", "2.5")
    ck = tmp_path / "m.ckpt"  # evaluate would exit 1 on loading this missing checkpoint
    extra = ["--masks", "p"] if command == "ablate" else ["--checkpoint", str(ck)]
    assert main([command, "--data-dir", prepared] + extra + BASE) == 2
    assert "CASER_THREADS" in _one_error_line(capsys)
    assert not ck.exists()


def test_sweep_jobs_after_a_threaded_training_finishes(prepared, large_split, two_cpus, capsys, monkeypatch):
    # the training's Adam threads are gone before sweep forks its workers
    threads = []
    real_part = training._adam_part
    monkeypatch.setattr(training, "_adam_part",
                        lambda *args: threads.append((args[-1], threading.get_ident())) or real_part(*args))
    before = threading.active_count()
    train(large_split, LARGE_HP, seed=1, epochs=1, batch_size=200, patience=1)
    # every step ran part 0 on the caller and part 1 on another thread
    parts = [part for part, _ in threads]
    assert parts and parts.count(0) == parts.count(1) == len(parts) / 2
    assert all((ident == threading.get_ident()) == (part == 0) for part, ident in threads)
    assert threading.active_count() == before
    code = main(["sweep", "--data-dir", prepared, "--jobs", "2", "--grid", "latent_dim=4,6"] + SWEEP_BASE)
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].startswith("best: ")


def test_non_integer_thread_cap_exits_2_before_any_trial(prepared, capsys, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setenv("CASER_THREADS", "x")
    monkeypatch.setattr("convrec.cli.train", no_trial)
    code = main(["sweep", "--data-dir", prepared, "--grid", "latent_dim=4"] + SWEEP_BASE)
    assert code == 2
    assert "CASER_THREADS" in _one_error_line(capsys)
