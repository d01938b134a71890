"""End-to-end tests of the command-line interface.

Every command is driven through ``main(argv)`` against temporary files;
outputs are parsed back and checked against library calls or frozen
values, and the manifest-replay contract (bit-exact reproduction for the
seeded commands) is asserted on raw bytes.
"""

import csv
import dataclasses
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import trawlprice.cli as cli
from trawlprice import (
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    SupGammaTrawl,
    TrawlSpec,
    main,
    read_path_csv,
)

from conftest import BASE_B, BASE_LAM, BASE_NU

DATA = Path(__file__).parent / "data"


@pytest.fixture
def params_file(tmp_path, base_params):
    p = tmp_path / "params.json"
    base_params.to_json(p)
    return str(p)


@pytest.fixture
def skellam_file(tmp_path, skellam_params):
    p = tmp_path / "skellam.json"
    skellam_params.to_json(p)
    return str(p)


def _simulate(tmp_path, params_file, name="path.csv", seed=1, t_end=20000.0):
    out = str(tmp_path / name)
    code = main([
        "simulate", "--params", params_file, "--t-end", str(t_end),
        "--v0", "7486", "--seed", str(seed), "--output", out,
    ])
    assert code == 0
    return out


def _read_csv(file):
    with open(file, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSimulate:
    def test_writes_path_sidecar_and_manifest(self, tmp_path, params_file, capsys):
        out = _simulate(tmp_path, params_file)
        assert Path(out).exists()
        assert Path(out + ".meta.json").exists()
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 1
        assert manifest["outputs"] == [out, out + ".meta.json"]
        assert manifest["config"]["t_end"] == 20000.0
        assert capsys.readouterr().out.startswith("simulate:")
        path = read_path_csv(out, out + ".meta.json")
        assert path.v0 == 7486 and path.t_start == 0.0 and path.t_end == 20000.0
        assert path.seed == 1

    def test_same_seed_reproduces_bytes(self, tmp_path, params_file):
        a = _simulate(tmp_path, params_file, "a.csv", seed=9)
        b = _simulate(tmp_path, params_file, "b.csv", seed=9)
        assert Path(a).read_bytes() == Path(b).read_bytes()
        c = _simulate(tmp_path, params_file, "c.csv", seed=10)
        assert Path(a).read_bytes() != Path(c).read_bytes()

    def test_manifest_replay_is_bit_exact(self, tmp_path, params_file):
        out = _simulate(tmp_path, params_file)
        replay = str(tmp_path / "replay.csv")
        code = main(["simulate", "--config", out + ".manifest.json", "--output", replay])
        assert code == 0
        assert Path(replay).read_bytes() == Path(out).read_bytes()
        assert (
            Path(replay + ".meta.json").read_text()
            == Path(out + ".meta.json").read_text()
        )

    def test_flags_override_config_file(self, tmp_path, params_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": 500.0, "v0": 0, "seed": 1}))
        direct = str(tmp_path / "direct.csv")
        via_cfg = str(tmp_path / "via_cfg.csv")
        assert main(["simulate", "--params", params_file, "--t-end", "500",
                     "--v0", "0", "--seed", "2", "--output", direct]) == 0
        assert main(["simulate", "--params", params_file, "--config", str(cfg),
                     "--seed", "2", "--output", via_cfg]) == 0
        assert Path(direct).read_bytes() == Path(via_cfg).read_bytes()

    def test_no_leftover_temp_files(self, tmp_path, params_file):
        _simulate(tmp_path, params_file)
        assert not list(tmp_path.glob("*.tmp"))

    def test_existing_tmp_files_are_left_alone(self, tmp_path, params_file):
        out = tmp_path / "path.csv"
        strangers = [Path(f"{out}.tmp"), Path(f"{out}.meta.json.tmp")]
        for i, file in enumerate(strangers):
            file.write_text(f"another run's file {i}\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        _simulate(tmp_path, params_file)
        for i, file in enumerate(strangers):
            assert file.read_text() == f"another run's file {i}\n"
        written = {"path.csv", "path.csv.meta.json", "path.csv.manifest.json"}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*before, *written])

    def test_outputs_follow_the_umask(self, tmp_path, params_file):
        mask = os.umask(0o027)
        try:
            out = _simulate(tmp_path, params_file)
        finally:
            os.umask(mask)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640


class TestPmf:
    def test_skellam_probabilities(self, tmp_path, skellam_file):
        out = str(tmp_path / "pmf.csv")
        assert main(["pmf", "--params", skellam_file, "--t", "1", "--output", out]) == 0
        header, rows = _read_csv(out)
        assert header == ["y", "probability"]
        probs = {int(y): float(p) for y, p in rows}
        assert_allclose(probs[0], 0.465759607594, rtol=1e-9)
        assert_allclose(probs[1], 0.20791041535, rtol=1e-9)
        assert_allclose(sum(probs.values()), 1.0, atol=1e-9)

    def test_explicit_grid_size(self, tmp_path, skellam_file):
        out = str(tmp_path / "pmf.csv")
        assert main(["pmf", "--params", skellam_file, "--t", "1",
                     "--n-points", "64", "--output", out]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 63  # support [-(N/2 - 1), N/2 - 1]


class TestAcf:
    def test_matches_library_values(self, tmp_path, params_file, base_params):
        from trawlprice import acf

        out = str(tmp_path / "acf.csv")
        assert main(["acf", "--params", params_file, "--delta", "1",
                     "--k-max", "5", "--output", out]) == 0
        header, rows = _read_csv(out)
        assert header == ["k", "gamma", "rho"]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
        gamma, rho = acf(base_params, 1.0, 5)
        assert_allclose([float(r[1]) for r in rows], gamma, rtol=1e-12)
        assert_allclose([float(r[2]) for r in rows], rho, rtol=1e-12)
        assert_allclose(float(rows[0][2]), -0.170071213951, rtol=1e-9)


class TestFit:
    def test_fit_on_simulated_path(self, tmp_path, params_file, capsys):
        path_csv = _simulate(tmp_path, params_file, t_end=75527.97)
        out = str(tmp_path / "fit.json")
        code = main(["fit", "--input", path_csv, "--family", "exponential",
                     "--grid-min", "0.1", "--grid-max", "60", "--grid-points", "60",
                     "--output", out])
        assert code == 0
        blob = json.loads(Path(out).read_text())
        assert blob["trawl"]["family"] == "exponential"
        assert abs(blob["b"] - BASE_B) < 0.1
        assert abs(blob["trawl"]["params"]["lambda"] - BASE_LAM) < 0.3
        assert blob["converged"] is True
        sig_header, sig_rows = _read_csv(out + ".signature.csv")
        assert sig_header == ["delta", "empirical", "fitted"]
        assert len(sig_rows) == 60
        assert all(r[2] != "" for r in sig_rows)
        assert capsys.readouterr().out.splitlines()[-1].startswith("fit:")

    def test_fit_json_records_diagnostics(self, tmp_path, params_file):
        path_csv = _simulate(tmp_path, params_file, t_end=5000.0)
        out = str(tmp_path / "fit.json")
        assert main(["fit", "--input", path_csv, "--output", out]) == 0
        diag = json.loads(Path(out).read_text())["diagnostics"]
        assert diag["search"] == "grid+brent"
        assert diag["nfev"] > 0 and isinstance(diag["message"], str)

    def test_nonconvergence_exit_code_with_partial_output(self, tmp_path, params_file, monkeypatch):
        path_csv = _simulate(tmp_path, params_file, t_end=5000.0)
        real = cli.fit_signature

        def never_converges(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(cli, "fit_signature", never_converges)
        out = str(tmp_path / "fit.json")
        code = main(["fit", "--input", path_csv, "--output", out])
        assert code == 3
        assert json.loads(Path(out).read_text())["converged"] is False
        assert Path(out + ".signature.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [["fit", "--n-starts", "3"], ["fit", "--fit-seed", "1"], ["bootstrap", "--n-starts", "3"]],
        ids=["fit-n-starts", "fit-seed", "bootstrap-n-starts"],
    )
    def test_retired_fit_flags_are_usage_errors(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(tmp_path / "out.json")])
        assert exc.value.code == 1

    def test_manifest_with_retired_keys_replays(self, tmp_path, params_file):
        # manifests written while the multi-start fit existed record
        # n_starts and fit_seed; replaying one gives the same outputs
        path_csv = _simulate(tmp_path, params_file, t_end=5000.0)
        out = str(tmp_path / "fit.json")
        assert main(["fit", "--input", path_csv, "--family", "sup-gamma", "--output", out]) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        manifest["config"].update(n_starts=20, fit_seed=0)
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(manifest))
        replay = str(tmp_path / "replay.json")
        assert main(["fit", "--config", str(old), "--output", replay]) == 0
        assert Path(replay).read_bytes() == Path(out).read_bytes()
        assert Path(replay + ".signature.csv").read_bytes() == Path(out + ".signature.csv").read_bytes()
        assert "n_starts" not in json.loads(Path(replay + ".manifest.json").read_text())["config"]


class TestSignature:
    def test_empirical_only(self, tmp_path, params_file):
        path_csv = _simulate(tmp_path, params_file)
        out = str(tmp_path / "sig.csv")
        assert main(["signature", "--input", path_csv, "--grid-points", "20",
                     "--output", out]) == 0
        header, rows = _read_csv(out)
        assert header == ["delta", "empirical", "fitted"]
        assert len(rows) == 20
        assert all(r[2] == "" for r in rows)
        assert all(float(r[1]) > 0 for r in rows)

    def test_fitted_column_from_params(self, tmp_path, params_file, base_params):
        from trawlprice import return_cumulant

        path_csv = _simulate(tmp_path, params_file)
        out = str(tmp_path / "sig.csv")
        assert main(["signature", "--input", path_csv, "--grid-points", "20",
                     "--fitted-params", params_file, "--output", out]) == 0
        _, rows = _read_csv(out)
        deltas = np.array([float(r[0]) for r in rows])
        fitted = np.array([float(r[2]) for r in rows])
        expected = np.array([return_cumulant(base_params, float(d), 2) / d for d in deltas])
        assert_allclose(fitted, expected, rtol=1e-10)

    @pytest.mark.parametrize("family", ["exponential", "sup-gig"])
    def test_fit_sidecar_is_the_one_signature_curve(self, tmp_path, params_file, family):
        # the fit's sidecar, the signature command on the fitted parameters
        # and the return cumulant all give the same model curve, and the
        # reported objective is its squared distance to the data
        from trawlprice import return_cumulant

        path_csv = _simulate(tmp_path, params_file)
        out = str(tmp_path / "fit.json")
        assert main(["fit", "--input", path_csv, "--family", family, "--output", out]) == 0
        sig = str(tmp_path / "sig.csv")
        assert main(["signature", "--input", path_csv, "--fitted-params", out, "--output", sig]) == 0
        _, fit_rows = _read_csv(out + ".signature.csv")
        _, sig_rows = _read_csv(sig)
        deltas, empirical, fitted = np.array(fit_rows, dtype=float).T
        assert_array_equal(np.array(sig_rows, dtype=float)[:, :2], np.column_stack([deltas, empirical]))
        assert_allclose(np.array(sig_rows, dtype=float)[:, 2], fitted, rtol=1e-10)
        fit_params = ModelParams.from_json(out)
        expected = np.array([return_cumulant(fit_params, d, 2) / d for d in deltas])
        assert_allclose(fitted, expected, rtol=1e-10)
        objective = json.loads(Path(out).read_text())["objective"]
        assert_allclose(objective, np.sum((fitted - empirical) ** 2), rtol=1e-12)


class TestClean:
    def test_reproduces_golden_files(self, tmp_path, capsys):
        out = str(tmp_path / "clean.csv")
        diag = str(tmp_path / "diag.txt")
        code = main(["clean", "--input", str(DATA / "raw_ticks.csv"),
                     "--tick-size", "0.25", "--m-factor", "9.5", "--step1",
                     "--diagnostics", diag, "--output", out])
        assert code == 0
        assert Path(out).read_bytes() == (DATA / "clean_expected.csv").read_bytes()
        assert Path(out + ".meta.json").read_bytes() == (DATA / "clean_expected.json").read_bytes()
        assert Path(diag).read_text() == (DATA / "clean_expected_diagnostics.txt").read_text()
        assert capsys.readouterr().out.startswith("clean:")

    def test_diagnostics_to_stderr_by_default(self, tmp_path, capsys):
        out = str(tmp_path / "clean.csv")
        code = main(["clean", "--input", str(DATA / "raw_ticks.csv"),
                     "--tick-size", "0.25", "--step1", "--output", out])
        assert code == 0
        assert "step3-2:" in capsys.readouterr().err


class TestBootstrap:
    def test_writes_se_json_and_replays(self, tmp_path, params_file):
        out = str(tmp_path / "boot.json")
        argv = ["bootstrap", "--params", params_file, "--span", "1800", "--v0", "0",
                "--n-paths", "2", "--seed", "3", "--grid-points", "30",
                "--workers", "1", "--output", out]
        assert main(argv) == 0
        blob = json.loads(Path(out).read_text())
        assert blob["n_paths"] == 2 and blob["seed"] == 3
        assert blob["family"] == "exponential"
        assert set(blob["names"]) == {"b", "lambda", "nu(+1)", "nu(-1)"}
        assert all(blob["se"][k] >= 0 for k in blob["names"])
        assert all(math.isfinite(blob["means"][k]) for k in blob["names"])
        replay = str(tmp_path / "boot2.json")
        assert main(["bootstrap", "--config", out + ".manifest.json", "--output", replay]) == 0
        assert Path(replay).read_bytes() == Path(out).read_bytes()
        # manifests from before the multi-start fit was removed record n_starts
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        manifest["config"]["n_starts"] = 20
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(manifest))
        replay = str(tmp_path / "boot3.json")
        assert main(["bootstrap", "--config", str(old), "--output", replay]) == 0
        assert Path(replay).read_bytes() == Path(out).read_bytes()

    def test_failed_replicas_written_with_reasons(self, tmp_path, params_file, monkeypatch):
        import trawlprice.estimate as estimate

        real = estimate.fit_signature
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(estimate, "fit_signature", fail_second)
        out = str(tmp_path / "boot.json")
        assert main(["bootstrap", "--params", params_file, "--span", "1800", "--v0", "0",
                     "--n-paths", "3", "--seed", "3", "--workers", "1", "--output", out]) == 3
        blob = json.loads(Path(out).read_text())
        assert blob["failures"] == [{"replica": 1, "reason": "boom"}]
        assert blob["n_nonconverged"] == 1

    @pytest.mark.filterwarnings("ignore:dropping window length")
    def test_all_replicas_failing_names_the_reason(self, tmp_path, params_file, capsys):
        out = str(tmp_path / "boot.json")
        assert main(["bootstrap", "--params", params_file, "--span", "50", "--v0", "0",
                     "--n-paths", "2", "--seed", "3", "--grid-min", "30", "--grid-max", "45",
                     "--grid-points", "3", "--workers", "1", "--output", out]) == 2
        assert "no compatible window lengths remain" in capsys.readouterr().err


class TestDefaultWorkers:
    def test_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("TRAWLPRICE_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._default_workers() == 1

    def test_environment_overrides_affinity(self, monkeypatch):
        monkeypatch.setenv("TRAWLPRICE_WORKERS", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._default_workers() == 3


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_option_is_usage_error(self, capsys):
        assert main(["simulate"]) == 1
        assert "--params" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--bogus", "1"])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_params_file_is_data_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        code = main(["simulate", "--params", str(tmp_path / "nope.json"),
                     "--t-end", "10", "--v0", "0", "--seed", "1", "--output", out])
        assert code == 2
        assert "cannot load model parameters" in capsys.readouterr().err

    def test_malformed_path_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1.0,2\n")
        (tmp_path / "bad.csv.meta.json").write_text('{"v0": 0, "t_start": 0.0, "t_end": 1.0, "seed": null}')
        assert main(["fit", "--input", str(bad), "--output", str(tmp_path / "f.json")]) == 2
        assert "cannot load path" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "signature"])
    def test_short_path_row_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,price_ticks\n0.5,101\n1.0\n")
        (tmp_path / "bad.csv.meta.json").write_text('{"v0": 100, "t_start": 0.0, "t_end": 2.0, "seed": null}')
        assert main([command, "--input", str(bad), "--output", str(tmp_path / "out")]) == 2
        assert "cannot load path" in capsys.readouterr().err

    def test_levy_not_an_object_is_data_error(self, tmp_path, base_params, capsys):
        data = base_params.to_dict()
        data["levy"] = [1, 2]
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(data))
        assert main(["pmf", "--params", str(bad), "--t", "1", "--output", str(tmp_path / "pmf.csv")]) == 2
        assert "cannot load model parameters" in capsys.readouterr().err

    def test_unknown_config_key_is_data_error(self, tmp_path, params_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tend": 10}')
        code = main(["simulate", "--params", params_file, "--config", str(cfg),
                     "--t-end", "10", "--v0", "0", "--seed", "1",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_degenerate_clean_input_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "log_t,bid,bidsz,ask,asksz,trade,tradesz\n"
            "0.0,,,,,100.0,1\n1.0,,,,,100.0,1\n"
        )
        assert main(["clean", "--input", str(raw), "--tick-size", "0.25",
                     "--output", str(tmp_path / "c.csv")]) == 2
        assert "fewer than two" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("trawlprice ")
