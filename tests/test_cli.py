import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from interpnn import cli
from interpnn.cli import main
from interpnn.theory import pr_same_k

DATA = Path(__file__).parent / "data"


def run(args) -> int:
    return main([str(a) for a in args])


def read_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestTheoryCommand:
    def test_golden_rows(self, tmp_path):
        assert run(["theory", "--d", 2, "--which", "pr", "--step", 0.1, "--out", tmp_path]) == 0
        header, rows = read_rows(tmp_path / "theory_pr_d2.csv")
        assert header == ["gamma", "gamma_over_d", "value", "in_theory_range"]
        assert float(rows[0]["value"]) == 1.0
        row5 = next(r for r in rows if abs(float(r["gamma"]) - 0.5) < 1e-9)
        assert float(row5["value"]) == pytest.approx(0.994898, abs=1e-6)
        assert row5["in_theory_range"] == "true"

    def test_pr_opt_below_one_inside_range_d4(self, tmp_path):
        assert run(["theory", "--d", 4, "--which", "pr_opt", "--step", 0.05, "--gamma-max", 1.3, "--out", tmp_path]) == 0
        _, rows = read_rows(tmp_path / "theory_pr_opt_d4.csv")
        inside = [r for r in rows if 0.0 < float(r["gamma"]) < 4.0 / 3.0]
        assert inside and all(float(r["value"]) < 1.0 for r in inside)

    def test_rerun_from_resolved_config_is_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["theory", "--d", 3, "--which", "ownn", "--out", out1]) == 0
        cfg = (out1 / "theory_ownn_d3_config.txt").read_text().replace(str(out1), str(out2))
        (tmp_path / "replay.txt").write_text(cfg)
        assert run(["theory", "--config", tmp_path / "replay.txt"]) == 0
        assert (out1 / "theory_ownn_d3.csv").read_bytes() == (out2 / "theory_ownn_d3.csv").read_bytes()

    def test_domain_error_exit_code(self, tmp_path):
        assert run(["theory", "--d", 2, "--gamma-max", 1.5, "--out", tmp_path]) == 4

    def test_bad_step_exit_code(self, tmp_path):
        assert run(["theory", "--d", 2, "--step", 0, "--out", tmp_path]) == 2


SIM_CFG = """
model = classification_2
d = 2
n_train = 96
n_test = 128
n_tune = 128
repetitions = 4
gamma_over_d = 0,0.2
k_grid = 4,8
seed = 11
"""


class TestSimulateCommand:
    def test_run_and_columns(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CFG)
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        header, rows = read_rows(out / "simulate.csv")
        assert header == ["gamma_over_d", "k_used", "criterion_mean", "criterion_sd",
                          "ratio_mean", "ratio_sd", "theory_ratio"]
        assert float(rows[0]["ratio_mean"]) == 1.0
        assert float(rows[1]["theory_ratio"]) == pytest.approx(pr_same_k(2, 0.4), abs=1e-12)

    def test_single_rep_gamma_zero(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text("model = regression\nd = 2\nn_train = 64\nn_test = 64\nn_tune = 64\n"
                       "repetitions = 1\ngamma_over_d = 0\nk_grid = 4,8\n")
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out / "simulate.csv")
        assert len(rows) == 1
        assert float(rows[0]["ratio_mean"]) == 1.0
        assert float(rows[0]["ratio_sd"]) == 0.0

    def test_thread_count_preserves_bytes(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CFG)
        outs = []
        for threads, sub in ((1, "t1"), (4, "t4")):
            out = tmp_path / sub
            assert run(["simulate", "--config", cfg, "--out", out, "--threads", threads]) == 0
            outs.append((out / "simulate.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CFG + "bogus_key = 1\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_paper_scale_forces_500_repetitions(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text("model = regression\nd = 1\nn_train = 32\nn_test = 16\nn_tune = 16\n"
                       "repetitions = 2\ngamma_over_d = 0\nk_grid = 3\n")
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--out", out, "--paper-scale"]) == 0
        assert "repetitions = 500" in (out / "simulate_config.txt").read_text()

    def test_advisory_once_per_gamma_and_csv_unchanged(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CFG.replace("gamma_over_d = 0,0.2", "gamma_over_d = 0,0.2,0.35,0.4"))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "shown"]) == 0
        err = capsys.readouterr().err
        assert err.count("advisory:") == 2  # gamma = 0.7 and 0.8 are >= d/3 in d = 2
        assert "gamma = 0.7 >= d/3" in err and "gamma = 0.8 >= d/3" in err
        monkeypatch.setattr(cli, "_print_advisories", lambda fracs, d: None)
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "hidden"]) == 0
        assert "advisory:" not in capsys.readouterr().err
        assert (tmp_path / "shown" / "simulate.csv").read_bytes() == (tmp_path / "hidden" / "simulate.csv").read_bytes()

    def test_bad_model_rejected(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text("model = nope\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_svg_is_self_contained(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CFG)
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--out", out, "--plot"]) == 0
        svg = out / "simulate.svg"
        text = svg.read_text()
        assert svg.stat().st_size < 1_000_000
        assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "href" not in text
        ET.fromstring(text)  # well-formed XML


class TestToyCommand:
    def test_interpolation_at_training_points(self, tmp_path):
        out = tmp_path / "o"
        assert run(["toy", "--out", out, "--seed", 3]) == 0
        header, rows = read_rows(out / "toy.csv")
        assert header == ["model_id", "scheme", "x", "eta_true", "eta_hat"]
        # noiseless x^2 model: the interpolating power scheme reproduces x^2
        # exactly at training grid points
        for r in rows:
            if r["model_id"] == "2" and r["scheme"] == "power":
                x = float(r["x"])
                if x == int(x):
                    assert float(r["eta_hat"]) == pytest.approx(x * x, abs=1e-9)

    def test_mse_and_bias_orderings(self, tmp_path):
        out = tmp_path / "o"
        assert run(["toy", "--out", out, "--seed", 5]) == 0
        _, rows = read_rows(out / "toy.csv")

        def err(model_id, scheme):
            sel = [r for r in rows if r["model_id"] == model_id and r["scheme"] == scheme]
            return np.mean([(float(r["eta_hat"]) - float(r["eta_true"])) ** 2 for r in sel])

        # pure noise: uniform < one_minus_log < power
        assert err("1", "uniform") < err("1", "one_minus_log") < err("1", "power")
        # noiseless curvature: power < one_minus_log < uniform
        assert err("2", "power") < err("2", "one_minus_log") < err("2", "uniform")


ATTACK_CFG = """
model = classification_2
d = 2
n_train = 96
n_test = 96
n_tune = 96
repetitions = 3
gamma_over_d = 0,0.2
k_grid = 4,8
kinds = random,white_box
omegas = 0,0.1
candidate_budget = 8
seed = 5
"""


class TestAttackCommand:
    def test_columns_and_omega_zero_rows_match_clean(self, tmp_path):
        cfg = tmp_path / "a.txt"
        cfg.write_text(ATTACK_CFG)
        out = tmp_path / "o"
        assert run(["attack", "--config", cfg, "--out", out]) == 0
        header, rows = read_rows(out / "attack.csv")
        assert header == ["kind", "omega", "gamma_over_d", "regret_mean", "regret_sd"]
        zero_random = [(r["gamma_over_d"], r["regret_mean"], r["regret_sd"])
                       for r in rows if r["kind"] == "random" and float(r["omega"]) == 0.0]
        zero_white = [(r["gamma_over_d"], r["regret_mean"], r["regret_sd"])
                      for r in rows if r["kind"] == "white_box" and float(r["omega"]) == 0.0]
        assert zero_random == zero_white  # omega = 0 ignores the kind entirely

    def test_advisory_once_per_gamma(self, tmp_path, capsys):
        cfg = tmp_path / "a.txt"
        cfg.write_text(ATTACK_CFG.replace("gamma_over_d = 0,0.2", "gamma_over_d = 0,0.2,0.4"))
        assert run(["attack", "--config", cfg, "--out", tmp_path / "o"]) == 0
        err = capsys.readouterr().err
        assert err.count("advisory:") == 1 and "gamma = 0.8 >= d/3" in err

    def test_determinism_across_threads(self, tmp_path):
        cfg = tmp_path / "a.txt"
        cfg.write_text(ATTACK_CFG)
        blobs = []
        for threads, sub in ((1, "x"), (3, "y")):
            out = tmp_path / sub
            assert run(["attack", "--config", cfg, "--out", out, "--threads", threads]) == 0
            blobs.append((out / "attack.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestRealCommand:
    def real_cfg(self, tmp_path, **kw):
        base = {
            "csv": DATA / "mini_rings.csv",
            "feature_columns": "length,diam,weight",
            "label_column": "rings",
            "binarize": "gt:10",
            "train_fraction": "0.25",
            "repeats": "5",
            "gamma_over_d": "0,0.1,0.2",
            "k_grid": "1,2,4,8,16",
            "seed": "1",
        }
        base.update(kw)
        cfg = tmp_path / "real.txt"
        cfg.write_text("\n".join(f"{k} = {v}" for k, v in base.items()))
        return cfg

    def test_smoke_run_reports_best_gamma(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["real", "--config", self.real_cfg(tmp_path), "--out", out]) == 0
        header, rows = read_rows(out / "real.csv")
        assert header == ["gamma_over_d", "k_best", "test_error_mean", "test_error_sd"]
        assert len(rows) == 3
        assert all(0.0 <= float(r["test_error_mean"]) <= 1.0 for r in rows)
        text = (out / "real.csv").read_text()
        assert "# best gamma_over_d" in text
        assert "best gamma_over_d" in capsys.readouterr().out

    def test_deterministic_given_seed(self, tmp_path):
        blobs = []
        for sub in ("p", "q"):
            out = tmp_path / sub
            assert run(["real", "--config", self.real_cfg(tmp_path), "--out", out]) == 0
            blobs.append((out / "real.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_paper_scale_forces_500_repeats(self, tmp_path, monkeypatch):
        seen = {}
        monkeypatch.setitem(cli.COMMANDS, "real", lambda cfg: seen.update(cfg) or 0)
        assert run(["real", "--config", self.real_cfg(tmp_path), "--out", tmp_path / "o", "--paper-scale"]) == 0
        assert seen["repeats"] == 500

    def test_advisory_once_per_gamma(self, tmp_path, capsys):
        # three features, so gamma/d = 0.4 is gamma = 1.2 >= d/3 = 1
        cfg = self.real_cfg(tmp_path, gamma_over_d="0,0.1,0.4", repeats="2")
        assert run(["real", "--config", cfg, "--out", tmp_path / "o"]) == 0
        err = capsys.readouterr().err
        assert err.count("advisory:") == 1 and "gamma = 1.2 >= d/3 = 1" in err

    def test_missing_file_is_data_error(self, tmp_path):
        cfg = self.real_cfg(tmp_path, csv=tmp_path / "missing.csv")
        assert run(["real", "--config", cfg, "--out", tmp_path / "o"]) == 3

    def test_degenerate_dataset_constant_classifier(self, tmp_path):
        # all labels 0: classifier is constant, error = minority share = 0
        rows = ["a,b,y"] + [f"{i}.0,{i}.5,0" for i in range(40)]
        p = tmp_path / "const.csv"
        p.write_text("\n".join(rows) + "\n")
        cfg = self.real_cfg(tmp_path, csv=p, feature_columns="a,b", label_column="y", binarize="none",
                            k_grid="1,2", repeats="2")
        out = tmp_path / "o"
        assert run(["real", "--config", cfg, "--out", out]) == 0
        _, out_rows = read_rows(out / "real.csv")
        assert all(float(r["test_error_mean"]) == 0.0 for r in out_rows)


class TestResolvedConfigReplay:
    def test_simulate_rerun_from_resolved_config(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["simulate", "--config", cfg, "--out", out1]) == 0
        resolved = (out1 / "simulate_config.txt").read_text().replace(str(out1), str(out2))
        replay = tmp_path / "replay.txt"
        replay.write_text(resolved)
        assert run(["simulate", "--config", replay]) == 0
        assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()
