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
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import trawlprice.clean as clean
import trawlprice.cli as cli
from trawlprice import (
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    SupGammaTrawl,
    TrawlSpec,
    bootstrap,
    main,
    read_path_csv,
    read_raw_csv,
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

    def test_nonconvergence_exit_code_with_partial_output(self, tmp_path, params_file, monkeypatch, capsys):
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
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["outputs"] == [out, out + ".signature.csv"]
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].startswith("fit: ")
        assert captured.err == "fit: optimizer did not converge; outputs written anyway\n"

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


def _plain_feed(seed: int, n: int) -> str:
    """``n`` quote and trade records with plain numeric cells only: no quote, space or recorded nan."""
    rng = np.random.default_rng(seed)
    price, ms, lines = 400, 0, ["log_t,bid,bidsz,ask,asksz,trade,tradesz"]
    for _ in range(n):
        ms += int(rng.integers(0, 3))  # a step of 0 repeats the stamp
        kind, size = rng.random(), int(rng.integers(1, 50))
        if kind < 0.25:
            lines.append(f"{ms / 1000!r},{(price - 1) * 0.25!r},{size},{(price + 1) * 0.25!r},{size},,")
        elif kind < 0.27:  # a print far outside the quotes
            lines.append(f"{ms / 1000!r},,,,,{(price + 40) * 0.25!r},{size}")
        elif kind < 0.29:  # a straddle of the price at a new stamp
            ms += 1
            lines += [f"{ms / 1000!r},,,,,{(price + d) * 0.25!r},{size}" for d in (-1, 1)]
        else:
            price += int(rng.integers(-1, 2))
            lines.append(f"{ms / 1000!r},,,,,{price * 0.25!r},{size}")
    return "\n".join(lines) + "\n"


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

    def test_fast_path_and_fallback_write_the_same_files(self, tmp_path, monkeypatch, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(_plain_feed(seed=11, n=3000))
        usecols, start = clean._usecols(raw.read_bytes())
        assert clean._read_plain(raw.read_bytes()[start:], usecols) is not None  # the feed takes the fast path

        def run(tag):
            (tmp_path / tag).mkdir()
            monkeypatch.chdir(tmp_path / tag)  # equal relative names give equal summaries and manifests
            code = main(["clean", "--input", str(raw), "--tick-size", "0.25", "--step1",
                         "--diagnostics", "diag.txt", "--output", "clean.csv"])
            manifest = json.loads(Path("clean.csv.manifest.json").read_text())
            del manifest["runtime_s"]
            files = [Path(name).read_bytes() for name in ("clean.csv", "clean.csv.meta.json", "diag.txt")]
            return code, capsys.readouterr(), manifest, files

        fast = run("fast")
        monkeypatch.setattr(clean, "_read_plain", lambda body, usecols: None)
        assert run("fallback") == fast
        code, _, _, (_, _, diag) = fast
        assert code == 0
        assert {line.split()[0] for line in diag.decode().splitlines()} == {
            "step1:", "step2:", "step3-1:", "step3-2:", "step4:",
        }

    @pytest.mark.parametrize("edit", [
        lambda raw: raw.replace(b",1498.50,", b',"1498.50",', 1),  # a quoted cell: read cell by cell
        lambda raw: b"\n".join(line + (b",caf\xe9" if k else b",note") for k, line in enumerate(raw.splitlines())),
        lambda raw: b"\xef\xbb\xbf" + raw,
    ], ids=["quoted-cell", "latin-1-note", "byte-order-mark"])
    def test_reads_a_piped_feed_in_an_ascii_locale(self, tmp_path, edit):
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        run = subprocess.run(
            [sys.executable, "-m", "trawlprice", "clean", "--input", "/dev/stdin", "--tick-size", "0.25",
             "--m-factor", "9.5", "--step1", "--diagnostics", "diag.txt", "--output", "clean.csv"],
            input=edit((DATA / "raw_ticks.csv").read_bytes()), capture_output=True, cwd=tmp_path, env=env,
        )
        assert run.returncode == 0, run.stderr
        for name, golden in [("clean.csv", "clean_expected.csv"), ("clean.csv.meta.json", "clean_expected.json"),
                             ("diag.txt", "clean_expected_diagnostics.txt")]:
            assert (tmp_path / name).read_bytes() == (DATA / golden).read_bytes()

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
        assert json.loads(Path(out + ".manifest.json").read_text())["outputs"] == [out]

    @pytest.mark.filterwarnings("ignore:dropping window length")
    def test_all_replicas_failing_names_the_reason(self, tmp_path, params_file, capsys):
        out = str(tmp_path / "boot.json")
        assert main(["bootstrap", "--params", params_file, "--span", "50", "--v0", "0",
                     "--n-paths", "2", "--seed", "3", "--grid-min", "30", "--grid-max", "45",
                     "--grid-points", "3", "--workers", "1", "--output", out]) == 2
        assert "no compatible window lengths remain" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_is_data_error(self, tmp_path, params_file, capsys, workers):
        out = str(tmp_path / "boot.json")
        assert main(["bootstrap", "--params", params_file, "--span", "1800", "--v0", "0",
                     "--n-paths", "2", "--seed", "3", "--workers", workers, "--output", out]) == 2
        assert f"worker count >= 1, got {workers}" in capsys.readouterr().err
        assert not Path(out).exists()


class TestRunner:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_command_writes_manifest_and_summary(self, tmp_path, params_file, base_params, capsys, command):
        path_csv = _simulate(tmp_path, params_file, t_end=5000.0)
        raw, out, diag = str(DATA / "raw_ticks.csv"), str(tmp_path / f"{command}.out"), str(tmp_path / "diag.txt")
        runs = {
            "simulate": (["--params", params_file, "--t-end", "500", "--v0", "0", "--seed", "1"],
                         [params_file], [out, out + ".meta.json"]),
            "clean": (["--input", raw, "--tick-size", "0.25", "--step1", "--diagnostics", diag],
                      [raw], [out, out + ".meta.json", diag]),
            "fit": (["--input", path_csv], [path_csv], [out, out + ".signature.csv"]),
            "pmf": (["--params", params_file, "--t", "1"], [params_file], [out]),
            "acf": (["--params", params_file, "--delta", "1"], [params_file], [out]),
            "signature": (["--input", path_csv, "--fitted-params", params_file], [path_csv, params_file], [out]),
            "bootstrap": (["--params", params_file, "--span", "1800", "--v0", "0", "--n-paths", "2", "--seed", "3",
                           "--grid-points", "30", "--workers", "1"], [params_file], [out]),
        }
        flags, inputs, outputs = runs[command]
        capsys.readouterr()
        assert main([command, *flags, "--output", out]) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert (manifest["command"], manifest["inputs"], manifest["outputs"]) == (command, inputs, outputs)
        assert all(Path(file).exists() for file in outputs)
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"{command}: ")
        signature_counts = {"events", "window_lengths", "windows"}
        keys = {
            "simulate": {"events"},
            "clean": {"records", "events"},
            "fit": signature_counts | {"nfev"},
            "signature": signature_counts,
            "bootstrap": {"replicas", "events", "windows", "nfev"},
        }.get(command, set())
        assert set(manifest["counts"]) == keys
        assert all(isinstance(v, int) and v > 0 for v in manifest["counts"].values())
        if command in ("simulate", "clean"):
            assert manifest["counts"]["events"] == read_path_csv(out, out + ".meta.json").n_events
        if command == "clean":
            assert manifest["counts"]["records"] == len(read_raw_csv(raw))
        if command == "bootstrap":
            grid = np.geomspace(0.1, 60.0, 30)
            result = bootstrap(base_params, 1800.0, 0, 2, seed=3, deltas=grid)
            assert manifest["counts"] == {"replicas": 2, **result.work}
            assert manifest["counts"]["windows"] == 2 * sum(math.floor(1800.0 / d) for d in grid)
        if command in ("fit", "signature"):
            path = read_path_csv(path_csv, path_csv + ".meta.json")
            grid = np.geomspace(0.1, 60.0, 60)
            assert manifest["counts"]["events"] == path.n_events
            assert manifest["counts"]["window_lengths"] == grid.size
            assert manifest["counts"]["windows"] == sum(math.floor(path.span / d) for d in grid)


class TestDefaultWorkers:
    def test_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("TRAWLPRICE_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._default_workers() == 1

    def test_environment_overrides_affinity(self, monkeypatch):
        monkeypatch.setenv("TRAWLPRICE_WORKERS", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._default_workers() == 3

    @pytest.mark.parametrize("env", ["0", "-3", "abc", "2.0"], ids=["zero", "negative", "non-integer", "float"])
    def test_unusable_environment_value(self, monkeypatch, env):
        monkeypatch.setenv("TRAWLPRICE_WORKERS", env)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(ValueError, match=f"TRAWLPRICE_WORKERS must be an integer >= 1, got '{env}'"):
            cli._default_workers()

    def test_empty_environment_value_means_unset(self, monkeypatch):
        monkeypatch.setenv("TRAWLPRICE_WORKERS", "")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert cli._default_workers() == 2

    @pytest.mark.parametrize("env", ["0", "-3", "abc"])
    def test_unusable_environment_value_is_data_error(self, tmp_path, params_file, capsys, monkeypatch, env):
        monkeypatch.setenv("TRAWLPRICE_WORKERS", env)
        out = str(tmp_path / "boot.json")
        assert main(["bootstrap", "--params", params_file, "--span", "1800", "--v0", "0",
                     "--n-paths", "2", "--seed", "3", "--output", out]) == 2
        assert f"TRAWLPRICE_WORKERS must be an integer >= 1, got '{env}'" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_flag_overrides_an_unusable_environment_value(self, tmp_path, params_file, monkeypatch):
        monkeypatch.setenv("TRAWLPRICE_WORKERS", "abc")
        out = str(tmp_path / "boot.json")
        assert main(["bootstrap", "--params", params_file, "--span", "1800", "--v0", "0", "--n-paths", "2",
                     "--seed", "3", "--grid-points", "30", "--workers", "1", "--output", out]) == 0
        assert json.loads(Path(out + ".manifest.json").read_text())["config"]["workers"] == 1

    def test_environment_is_read_when_a_run_starts(self, tmp_path, params_file, monkeypatch):
        # the variable is set after trawlprice.cli was imported
        monkeypatch.setenv("TRAWLPRICE_WORKERS", "1")
        out = str(tmp_path / "boot.json")
        assert main(["bootstrap", "--params", params_file, "--span", "1800", "--v0", "0",
                     "--n-paths", "2", "--seed", "3", "--grid-points", "30", "--output", out]) == 0
        assert json.loads(Path(out + ".manifest.json").read_text())["config"]["workers"] == 1


class TestOptionTables:
    def test_typed_defaults_have_their_type(self):
        # an option's type is declared once, in _FLAG_TYPES; a default that
        # is not None, a string or the required marker must be of that type,
        # and a callable default must return that type
        typed = {}
        for _, defaults in cli._COMMANDS.values():
            for key, default in defaults.items():
                default = default() if callable(default) else default
                if default is not None and default is not cli._REQUIRED and not isinstance(default, str):
                    assert type(default) is cli._FLAG_TYPES.get(key), key
                    typed[key] = type(default)
        assert typed == {
            "t_start": float, "m_factor": float, "step1": bool, "grid_min": float, "grid_max": float,
            "grid_points": int, "k_max": int, "workers": int,
        }

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_every_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = capsys.readouterr().out
        for key in cli._COMMANDS[command][1]:
            assert re.search(rf"^  --{key.replace('_', '-')}(\s|$)", listed, re.M), key

    def test_every_typed_flag_is_an_option(self):
        options = {key for _, defaults in cli._COMMANDS.values() for key in defaults}
        assert set(cli._FLAG_TYPES) <= options

    def test_untyped_options_are_text(self):
        # the commands pass option values to the library as resolved, so a
        # numeric option missing from _FLAG_TYPES would arrive as a string
        options = {key for _, defaults in cli._COMMANDS.values() for key in defaults}
        assert options - set(cli._FLAG_TYPES) == {
            "params", "input", "output", "sidecar", "family", "signature_output", "diagnostics", "fitted_params",
        }

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_config_values_resolve_to_their_option_type(self, tmp_path, command):
        defaults = cli._COMMANDS[command][1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True if cli._FLAG_TYPES.get(key) is bool else "8" for key in defaults}))
        resolved = cli._resolve_config(cli._build_parser().parse_args([command, "--config", str(cfg)]), defaults)
        assert {k: type(v) for k, v in resolved.items()} == {k: cli._FLAG_TYPES.get(k, str) for k in defaults}

    @pytest.mark.parametrize("command, loaded, flags", [
        ("simulate", {"seed": "5", "t_end": 10, "v0": 0}, ["--seed", "5", "--t-end", "10", "--v0", "0"]),
        ("pmf", {"t": 1}, ["--t", "1"]),
        ("acf", {"delta": 1}, ["--delta", "1"]),
    ], ids=["simulate", "pmf", "acf"])
    def test_config_and_flags_record_the_same_run(self, tmp_path, params_file, capsys, monkeypatch,
                                                  command, loaded, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        runs = []
        for how in (["--config", str(cfg)], flags):
            # the same relative output path in two directories, so the
            # manifests and summaries name the same file
            run_dir = tmp_path / str(len(runs))
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            capsys.readouterr()
            assert main([command, "--params", params_file, *how, "--output", "out.csv"]) == 0
            manifest = json.loads(Path("out.csv.manifest.json").read_text())
            del manifest["runtime_s"]
            outputs = {name: Path(name).read_bytes() for name in manifest["outputs"]}
            runs.append((manifest, outputs, capsys.readouterr().out))
        assert runs[0] == runs[1]


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_option_is_usage_error(self, capsys):
        assert main(["simulate"]) == 1
        assert "--params" in capsys.readouterr().err

    def test_missing_options_are_listed_in_flag_order(self, tmp_path, params_file, capsys):
        # a config that sets a required option to null leaves it missing
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": null, "span": 10.0}')
        assert main(["bootstrap", "--config", str(cfg), "--params", params_file, "--v0", "0"]) == 1
        assert capsys.readouterr().err == (
            "trawlprice bootstrap: missing required option(s): --n-paths, --seed, --output\n"
        )

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, (_, defaults) in cli._COMMANDS.items()
        for key, default in defaults.items() if default is not None and default is not cli._REQUIRED
    ])
    def test_config_null_for_an_option_with_a_default_is_data_error(self, tmp_path, capsys, command, key):
        # null is "no value" where None is the default and "missing" for a
        # required option; any other option once took None into the library
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        assert main([command, "--config", str(cfg)]) == 2
        kind = cli._FLAG_TYPES.get(key, str).__name__
        assert capsys.readouterr().err == f"trawlprice {command}: config {cfg} key {key!r}: None is not a valid {kind}\n"

    @pytest.mark.parametrize("command, loaded, flags", [
        ("simulate", {"t_start": None}, ["--t-end", "10", "--v0", "0", "--seed", "1"]),
        ("bootstrap", {"grid_min": None}, ["--span", "100", "--v0", "0", "--n-paths", "2", "--seed", "1"]),
    ], ids=["simulate-t_start", "bootstrap-grid_min"])
    def test_config_null_run_exits_two_without_traceback(self, tmp_path, params_file, capsys, command, loaded, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--params", params_file, *flags, "--output", str(out)]) == 2
        assert capsys.readouterr().err.endswith("None is not a valid float\n")
        assert not out.exists()

    def test_config_null_keeps_none_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for argv, key in ((["pmf", "--params", "p", "--t", "1"], "n_points"), (["fit", "--input", "i"], "sidecar")):
            cfg.write_text(json.dumps({key: None}))
            args = cli._build_parser().parse_args([*argv, "--config", str(cfg), "--output", "o"])
            assert cli._resolve_config(args, cli._COMMANDS[argv[0]][1])[key] is None

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

    def test_price_beyond_int64_is_data_error(self, tmp_path, params_file, capsys):
        # from the largest int64 start the first up move leaves the range
        out = tmp_path / "path.csv"
        code = main(["simulate", "--params", params_file, "--t-end", "20000", "--v0", str(2**63 - 1),
                     "--seed", "1", "--output", str(out)])
        assert code == 2
        assert "int64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "signature"])
    def test_move_beyond_int64_is_data_error(self, tmp_path, capsys, command):
        # the move from -1 to the largest int64 price is 2**63, one past the int64 range
        bad = tmp_path / "bad.csv"
        bad.write_text(f"time,price_ticks\n100.0,{2**63 - 1}\n200.0,0\n")
        (tmp_path / "bad.csv.meta.json").write_text('{"v0": -1, "t_start": 0.0, "t_end": 1000.0, "seed": null}')
        assert main([command, "--input", str(bad), "--output", str(tmp_path / "out")]) == 2
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "signature"])
    def test_start_price_beyond_int64_is_data_error(self, tmp_path, capsys, command):
        # a 1-tick move down from 2**63, a start price that int64 cannot hold
        bad = tmp_path / "bad.csv"
        bad.write_text(f"time,price_ticks\n100.0,{2**63 - 1}\n")
        (tmp_path / "bad.csv.meta.json").write_text(f'{{"v0": {2**63}, "t_start": 0.0, "t_end": 1000.0, "seed": null}}')
        assert main([command, "--input", str(bad), "--output", str(tmp_path / "out")]) == 2
        assert f"v0 {2**63} leaves the int64 range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "signature"])
    @pytest.mark.parametrize("flags", [["--grid-min", "0"], ["--grid-points", "1"]], ids=["min-zero", "one-point"])
    def test_invalid_grid_is_data_error(self, tmp_path, params_file, capsys, command, flags):
        path_csv = _simulate(tmp_path, params_file, t_end=500.0)
        out = tmp_path / "out"
        assert main([command, "--input", path_csv, *flags, "--output", str(out)]) == 2
        assert "invalid grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "signature"])
    @pytest.mark.parametrize("sidecar", [
        "[1, 2]",
        '{"v0": null, "t_start": 0.0, "t_end": 2000.0, "seed": 1}',
        '{"v0": 7486, "t_start": null, "t_end": 2000.0, "seed": 1}',
        '{"v0": 7486, "t_start": 0.0, "t_end": 2000.0, "seed": [1]}',
        '{"v0": Infinity, "t_start": 0.0, "t_end": 2000.0, "seed": 1}',
        '{"v0": 1.5, "t_start": 0.0, "t_end": 2000.0, "seed": 2.7}',
    ], ids=["array", "null-v0", "null-t_start", "list-seed", "infinite-v0", "fractional-v0-and-seed"])
    def test_malformed_sidecar_is_data_error(self, tmp_path, params_file, capsys, command, sidecar):
        path_csv = _simulate(tmp_path, params_file, t_end=2000.0)
        Path(path_csv + ".meta.json").write_text(sidecar)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--input", path_csv, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"trawlprice {command}: cannot load path from {path_csv}") and err.count("\n") == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("row, error", [
        ("1.0,abc,,,,100.25,1", "raw CSV line 3, column 'bid': 'abc' is not a number"),
        ("1.0,,,,", "raw CSV line 3 ends after 5 cell(s), before column 'trade'"),
    ], ids=["bad-cell", "short-row"])
    def test_unreadable_raw_feed_is_data_error(self, tmp_path, capsys, row, error):
        raw = tmp_path / "raw.csv"
        raw.write_text(f"log_t,bid,bidsz,ask,asksz,trade,tradesz\n0.0,,,,,100.0,1\n{row}\n2.0,,,,,100.5,1\n")
        out = tmp_path / "c.csv"
        assert main(["clean", "--input", str(raw), "--tick-size", "0.25", "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"trawlprice clean: cannot read raw feed from {raw}: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, error", [
        (None, "cannot read config {cfg}: "),
        ('{"t_end": 10', "cannot read config {cfg}: "),
        ("[1, 2]", "config {cfg} must hold a JSON object\n"),
    ], ids=["missing-file", "invalid-json", "json-array"])
    def test_unreadable_config_is_data_error(self, tmp_path, params_file, capsys, text, error):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "x.csv"
        code = main(["simulate", "--params", params_file, "--config", str(cfg), "--t-end", "10", "--v0", "0",
                     "--seed", "1", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("trawlprice simulate: " + error.format(cfg=cfg))
        assert not out.exists()

    def test_config_value_of_wrong_type_is_data_error(self, tmp_path, params_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"t_end": [10]}')
        code = main(["simulate", "--params", params_file, "--config", str(cfg), "--v0", "0", "--seed", "1",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"trawlprice simulate: config {cfg} key 't_end': [10] is not a valid float\n"

    @pytest.mark.parametrize("command, loaded, error", [
        ("fit", {"family": [1]}, "key 'family': [1] is not a valid str"),
        ("simulate", {"output": 5}, "key 'output': 5 is not a valid str"),
        ("clean", {"step1": "yes"}, "key 'step1': 'yes' is not a valid bool"),
        ("simulate", {"seed": True}, "key 'seed': True is not a valid int"),
        ("simulate", {"v0": 1.5}, "key 'v0': 1.5 is not a valid int"),
        ("simulate", {"seed": math.inf}, "key 'seed': inf is not a valid int"),
        ("simulate", {"t_end": True}, "key 't_end': True is not a valid float"),
        ("fit", {"grid_points": 64.9}, "key 'grid_points': 64.9 is not a valid int"),
    ], ids=["list-for-str", "number-for-path", "str-for-bool", "bool-for-int", "fraction-for-int", "infinity-for-int",
            "bool-for-float", "fraction-for-grid-points"])
    def test_config_option_of_wrong_json_type_is_data_error(self, tmp_path, params_file, capsys, command, loaded, error):
        out = str(tmp_path / "x.out")
        flags = {
            "fit": ["--input", _simulate(tmp_path, params_file, t_end=2000.0), "--output", out],
            "simulate": ["--params", params_file, "--t-end", "10", "--v0", "0", "--seed", "1"],
            "clean": ["--input", str(DATA / "raw_ticks.csv"), "--tick-size", "0.25", "--output", out],
        }[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err == f"trawlprice {command}: config {cfg} {error}\n"
        assert not Path(out).exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("trawlprice ")


def test_module_runs_the_cli():
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "trawlprice", "--version"], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, f"trawlprice {cli.__version__}\n", "")
    assert "trawlprice.__main__" not in sys.modules  # importing the package does not run the CLI
