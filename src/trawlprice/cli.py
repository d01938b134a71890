"""Command-line interface.

Every command writes its outputs atomically and drops a JSON run manifest
next to the primary output recording the resolved configuration, inputs,
outputs, and package version.  Passing a manifest back through
``--config`` replays the run; simulate and bootstrap outputs reproduce
bit-exactly because all randomness is seed-derived.

Exit codes: 0 success, 1 usage error, 2 data error, 3 fit/bootstrap
non-convergence (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .clean import CleanConfig, clean_ticks, read_raw_csv
from .estimate import bootstrap, collect_stats, fit_signature, variance_grid
from .model import ModelParams
from .simulate import read_path_csv, simulate_path, write_path_csv
from .theory import acf as theory_acf
from .theory import return_cumulant, return_pmf

__all__ = ["main", "RunManifest"]

_USAGE_ERROR, _DATA_ERROR, _NO_CONVERGENCE = 1, 2, 3


class _CliError(Exception):
    """Data or input-file problem; maps to exit code 2."""


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written alongside every output."""

    command: str
    config: dict
    seed: int | None
    inputs: list
    outputs: list
    version: str
    runtime_s: float

    def to_dict(self) -> dict:
        return asdict(self)


@contextlib.contextmanager
def _atomic_target(path: str):
    """Yield a unique temp file beside ``path``, renamed onto it on success, removed on error."""
    head, tail = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=f"{tail}.", suffix=".tmp", dir=head or ".")
    os.close(fd)
    try:
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)  # mkstemp makes 0600; keep open()'s mode
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _atomic_write_text(path: str, text: str) -> None:
    with _atomic_target(path) as tmp, open(tmp, "w", newline="") as fh:
        fh.write(text)


def _atomic_json(path: str, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(command: str, cfg: dict, inputs: list, outputs: list, started: float) -> None:
    manifest = RunManifest(
        command=command,
        config=cfg,
        seed=cfg.get("seed"),
        inputs=list(inputs),
        outputs=list(outputs),
        version=__version__,
        runtime_s=round(time.monotonic() - started, 6),
    )
    _atomic_json(f"{cfg['output']}.manifest.json", manifest.to_dict())


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_text(header: list[str], rows) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _load_params(path: str) -> ModelParams:
    try:
        return ModelParams.from_json(path)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        raise _CliError(f"cannot load model parameters from {path}: {exc}") from exc


def _load_path(csv_file: str, sidecar: str | None):
    sidecar = sidecar or f"{csv_file}.meta.json"
    try:
        return read_path_csv(csv_file, sidecar)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise _CliError(f"cannot load path from {csv_file} (+ {sidecar}): {exc}") from exc


def _write_path(path, out_csv: str) -> list[str]:
    sidecar = f"{out_csv}.meta.json"
    with _atomic_target(out_csv) as tmp_csv, _atomic_target(sidecar) as tmp_side:
        write_path_csv(path, tmp_csv, tmp_side)
    return [out_csv, sidecar]


def _grid_from_cfg(cfg: dict) -> np.ndarray:
    n = int(cfg["grid_points"])
    lo, hi = float(cfg["grid_min"]), float(cfg["grid_max"])
    if n < 2 or not (0.0 < lo < hi):
        raise _CliError(f"invalid grid: min={lo}, max={hi}, points={n}")
    return np.geomspace(lo, hi, n)


# ---------------------------------------------------------------------------
# command implementations (each returns the process exit code)
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict) -> int:
    started = time.monotonic()
    params = _load_params(cfg["params"])
    try:
        path = simulate_path(params, float(cfg["t_start"]), float(cfg["t_end"]), int(cfg["v0"]), int(cfg["seed"]))
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    outputs = _write_path(path, cfg["output"])
    _write_manifest("simulate", cfg, [cfg["params"]], outputs, started)
    print(f"simulate: {path.n_events} events on ({path.t_start}, {path.t_end}] -> {cfg['output']}")
    return 0


def _cmd_clean(cfg: dict) -> int:
    started = time.monotonic()
    try:
        records = read_raw_csv(cfg["input"])
        result = clean_ticks(
            records,
            CleanConfig(
                tick_size=float(cfg["tick_size"]),
                m_factor=float(cfg["m_factor"]),
                apply_step1=bool(cfg["step1"]),
            ),
        )
    except (OSError, ValueError) as exc:
        raise _CliError(str(exc)) from exc
    outputs = _write_path(result.path, cfg["output"])
    diag_text = "".join(line + "\n" for line in result.diagnostics)
    if cfg.get("diagnostics"):
        _atomic_write_text(cfg["diagnostics"], diag_text)
        outputs.append(cfg["diagnostics"])
    else:
        sys.stderr.write(diag_text)
    _write_manifest("clean", cfg, [cfg["input"]], outputs, started)
    print(
        f"clean: {len(records)} records -> {result.path.n_events + 1} prices, "
        f"{len(result.diagnostics)} diagnostic line(s) -> {cfg['output']}"
    )
    return 0


def _signature_rows(deltas, empirical, fitted):
    rows = []
    for i, d in enumerate(deltas):
        fit_cell = _fmt(fitted[i]) if fitted is not None else ""
        rows.append([_fmt(d), _fmt(empirical[i]), fit_cell])
    return rows


def _cmd_fit(cfg: dict) -> int:
    started = time.monotonic()
    path = _load_path(cfg["input"], cfg.get("sidecar"))
    grid = _grid_from_cfg(cfg)
    try:
        stats = collect_stats(path, grid, drop_incompatible=True)
        fit = fit_signature(stats, family=cfg["family"])
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _atomic_json(cfg["output"], fit.to_dict())
    sig_file = cfg.get("signature_output") or f"{cfg['output']}.signature.csv"
    _atomic_write_text(
        sig_file,
        _csv_text(["delta", "empirical", "fitted"], _signature_rows(fit.deltas, fit.empirical, fit.fitted)),
    )
    _write_manifest("fit", cfg, [cfg["input"]], [cfg["output"], sig_file], started)
    flags = f" boundary={list(fit.boundary_flags)}" if fit.boundary_flags else ""
    print(f"fit: family={cfg['family']} objective={fit.objective:.6e} converged={fit.converged}{flags}")
    if not fit.converged:
        sys.stderr.write("fit: optimizer did not converge; outputs written anyway\n")
        return _NO_CONVERGENCE
    return 0


def _cmd_pmf(cfg: dict) -> int:
    started = time.monotonic()
    params = _load_params(cfg["params"])
    n_points = cfg.get("n_points")
    try:
        result = return_pmf(params, float(cfg["t"]), None if n_points is None else int(n_points))
    except (ValueError, ArithmeticError) as exc:
        raise _CliError(str(exc)) from exc
    rows = [[int(y), _fmt(p)] for y, p in zip(result.support, result.probabilities)]
    _atomic_write_text(cfg["output"], _csv_text(["y", "probability"], rows))
    _write_manifest("pmf", cfg, [cfg["params"]], [cfg["output"]], started)
    print(
        f"pmf: t={cfg['t']} support [{result.support[0]}, {result.support[-1]}] "
        f"aliasing_bound={result.aliasing_bound:.3e} -> {cfg['output']}"
    )
    return 0


def _cmd_acf(cfg: dict) -> int:
    started = time.monotonic()
    params = _load_params(cfg["params"])
    try:
        gamma, rho = theory_acf(params, float(cfg["delta"]), int(cfg["k_max"]))
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    rows = [[k + 1, _fmt(g), _fmt(r)] for k, (g, r) in enumerate(zip(gamma, rho))]
    _atomic_write_text(cfg["output"], _csv_text(["k", "gamma", "rho"], rows))
    _write_manifest("acf", cfg, [cfg["params"]], [cfg["output"]], started)
    print(f"acf: delta={cfg['delta']} k_max={cfg['k_max']} -> {cfg['output']}")
    return 0


def _cmd_signature(cfg: dict) -> int:
    started = time.monotonic()
    path = _load_path(cfg["input"], cfg.get("sidecar"))
    grid = _grid_from_cfg(cfg)
    try:
        deltas, variances, _ = variance_grid(path, grid, drop_incompatible=True)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    empirical = variances / deltas
    fitted = None
    inputs = [cfg["input"]]
    if cfg.get("fitted_params"):
        params = _load_params(cfg["fitted_params"])
        fitted = [return_cumulant(params, d, 2) / d for d in deltas]
        inputs.append(cfg["fitted_params"])
    _atomic_write_text(
        cfg["output"], _csv_text(["delta", "empirical", "fitted"], _signature_rows(deltas, empirical, fitted))
    )
    _write_manifest("signature", cfg, inputs, [cfg["output"]], started)
    print(f"signature: {deltas.size} grid points -> {cfg['output']}")
    return 0


def _cmd_bootstrap(cfg: dict) -> int:
    started = time.monotonic()
    params = _load_params(cfg["params"])
    family = cfg.get("family") or params.trawl.family.name
    try:
        result = bootstrap(
            params,
            span=float(cfg["span"]),
            v0=int(cfg["v0"]),
            n_paths=int(cfg["n_paths"]),
            family=family,
            seed=int(cfg["seed"]),
            deltas=_grid_from_cfg(cfg),
            n_workers=int(cfg["workers"]),
        )
    except (ValueError, RuntimeError) as exc:
        raise _CliError(str(exc)) from exc
    payload = {
        "names": list(result.names),
        "se": result.se,
        "means": result.means,
        "n_paths": result.n_paths,
        "n_nonconverged": result.n_nonconverged,
        "seed": result.seed,
        "family": family,
        "failures": [{"replica": i, "reason": reason} for i, reason in result.failures],
    }
    _atomic_json(cfg["output"], payload)
    _write_manifest("bootstrap", cfg, [cfg["params"]], [cfg["output"]], started)
    print(f"bootstrap: {result.n_paths} paths, {result.n_nonconverged} nonconverged -> {cfg['output']}")
    if result.n_nonconverged:
        sys.stderr.write(f"bootstrap: {result.n_nonconverged} replica(s) did not converge\n")
        return _NO_CONVERGENCE
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; we want 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _default_workers() -> int:
    env = os.environ.get("TRAWLPRICE_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_GRID_DEFAULTS = {"grid_min": 0.1, "grid_max": 60.0, "grid_points": 60}

_COMMANDS = {
    "simulate": (
        _cmd_simulate,
        {"params": None, "t_start": 0.0, "t_end": None, "v0": None, "seed": None, "output": None},
        ("params", "t_end", "v0", "seed", "output"),
    ),
    "clean": (
        _cmd_clean,
        {"input": None, "tick_size": None, "m_factor": 9.5, "step1": False, "diagnostics": None, "output": None},
        ("input", "tick_size", "output"),
    ),
    "fit": (
        _cmd_fit,
        {
            "input": None, "sidecar": None, "family": "exponential", "signature_output": None,
            "output": None, **_GRID_DEFAULTS,
        },
        ("input", "output"),
    ),
    "pmf": (
        _cmd_pmf,
        {"params": None, "t": None, "n_points": None, "output": None},
        ("params", "t", "output"),
    ),
    "acf": (
        _cmd_acf,
        {"params": None, "delta": None, "k_max": 10, "output": None},
        ("params", "delta", "output"),
    ),
    "signature": (
        _cmd_signature,
        {"input": None, "sidecar": None, "fitted_params": None, "output": None, **_GRID_DEFAULTS},
        ("input", "output"),
    ),
    "bootstrap": (
        _cmd_bootstrap,
        {
            "params": None, "span": None, "v0": None, "n_paths": None, "family": None, "seed": None,
            "workers": _default_workers(), "output": None, **_GRID_DEFAULTS,
        },
        ("params", "span", "v0", "n_paths", "seed", "output"),
    ),
}

_FLAG_HELP = {"seed": "random seed (bootstrap seeds its replicas with it)"}

_FLAG_TYPES = {
    "t_start": float, "t_end": float, "v0": int, "seed": int, "tick_size": float,
    "m_factor": float, "grid_min": float, "grid_max": float, "grid_points": int,
    "t": float, "n_points": int, "delta": float, "k_max": int, "span": float, "n_paths": int,
    "workers": int,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="trawlprice", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"trawlprice {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, defaults, _required) in _COMMANDS.items():
        sub = subs.add_parser(name, help=f"{name} (see README)")
        sub.add_argument("--config", default=None, help="JSON file of option values (a run manifest also works)")
        for key in defaults:
            if key == "step1":
                sub.add_argument("--step1", action="store_true", default=argparse.SUPPRESS)
                continue
            flag = "--" + key.replace("_", "-")
            sub.add_argument(flag, type=_FLAG_TYPES.get(key, str), default=argparse.SUPPRESS, help=_FLAG_HELP.get(key))
    return parser


# options of the old multi-start fit that earlier manifests record; a
# loaded config drops them so those manifests still replay
_RETIRED_KEYS = ("n_starts", "fit_seed")


def _resolve_config(args: argparse.Namespace, defaults: dict, required) -> dict:
    cfg = dict(defaults)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot read config {args.config}: {exc}") from exc
        if isinstance(loaded, dict) and "config" in loaded and "command" in loaded:
            loaded = loaded["config"]  # accept a run manifest
        if not isinstance(loaded, dict):
            raise _CliError(f"config {args.config} must hold a JSON object")
        loaded = {k: v for k, v in loaded.items() if k not in _RETIRED_KEYS}
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise _CliError(f"config {args.config} has unknown key(s) {unknown}")
        cfg.update(loaded)
    explicit = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    cfg.update(explicit)
    missing = [k for k in required if cfg.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise _UsageError(f"missing required option(s): {flags}")
    return cfg


class _UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _USAGE_ERROR
    func, defaults, required = _COMMANDS[args.command]
    try:
        cfg = _resolve_config(args, defaults, required)
        return func(cfg)
    except _UsageError as exc:
        sys.stderr.write(f"trawlprice {args.command}: {exc}\n")
        return _USAGE_ERROR
    except (_CliError, ValueError, OSError) as exc:
        sys.stderr.write(f"trawlprice {args.command}: {exc}\n")
        return _DATA_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
