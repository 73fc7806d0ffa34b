import pytest

from convrec.checkpoint import load_checkpoint
from convrec.cli import main
from convrec.synthetic import SyntheticSpec, generate_interactions


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
        "prepare", "--data", data_file, "--set", "min_feedback=1", "--out", str(out), "--cache",
    ])
    assert code == 0
    return str(out)


BASE = [
    "--set", "min_feedback=1", "--set", "latent_dim=6", "--set", "order=3",
    "--set", "num_targets=1", "--set", "heights=1,2,3", "--set", "num_h_filters=2",
    "--set", "num_v_filters=1", "--set", "epochs=2", "--set", "batch_size=16",
    "--set", "dropout=0.3",
]


def test_prepare_writes_split_and_cache(prepared):
    import os

    assert os.path.exists(os.path.join(prepared, "split.json"))
    assert os.path.exists(os.path.join(prepared, "train_instances.bin"))


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
    assert "shape mismatch" in capsys.readouterr().err


def test_recommend_lists_items(prepared, checkpoint, capsys):
    code = main(["recommend", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--user", "u1", "--N", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    rank, item, score = lines[0].split("\t")
    assert rank == "1" and item.startswith("i")
    float(score)


def test_recommend_unknown_user(prepared, checkpoint, capsys):
    code = main(["recommend", "--data-dir", prepared, "--checkpoint", checkpoint,
                 "--user", "nobody", "--N", "3"])
    assert code == 1
    assert "unknown user" in capsys.readouterr().err


def test_mine_rules_csv_and_intensity(prepared, tmp_path, capsys):
    out_csv = str(tmp_path / "rules.csv")
    code = main(["mine-rules", "--data-dir", prepared, "--minsup", "2",
                 "--minconf", "0.3", "--max-skip", "1", "--out", out_csv])
    assert code == 0
    assert "SI=" in capsys.readouterr().out
    header = open(out_csv).read().splitlines()[0]
    assert header == "antecedent,consequent,skip,support,confidence"


def test_ablate_produces_table(prepared, tmp_path, capsys):
    out_csv = str(tmp_path / "ablation.csv")
    code = main(["ablate", "--data-dir", prepared, "--masks", "pop,p", "--out", out_csv] + BASE)
    assert code == 0
    lines = open(out_csv).read().strip().splitlines()
    assert lines[0] == "mask,MAP,Prec@1,epochs,seed"
    assert lines[1].startswith("pop,") and lines[2].startswith("p,")


def test_grad_check_command(capsys):
    code = main(["grad-check", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out and "[ok]" in out


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
