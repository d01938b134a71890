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
import json
import numbers
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .clean import CleanConfig, _fmt, clean_ticks, read_raw_csv
from .estimate import DEFAULT_GRID, bootstrap, collect_stats, fit_signature, variance_grid
from .model import ModelParams, _whole
from .simulate import read_path_csv, simulate_path, write_path_csv
from .theory import acf as theory_acf
from .theory import return_cumulant, return_pmf

__all__ = ["main"]

_USAGE_ERROR, _DATA_ERROR, _NO_CONVERGENCE = 1, 2, 3


class _UsageError(Exception):
    """A missing required option; maps to exit code 1 (a ``ValueError`` or ``OSError`` maps to 2)."""


@dataclass(frozen=True)
class _Run:
    """What a command did; :func:`main` turns it into the manifest, the
    summary line and the exit code (3, with ``unconverged`` on stderr,
    when it is set).  ``counts`` is the work done, recorded in the
    manifest."""

    inputs: list
    outputs: list
    summary: str
    unconverged: str | None = None
    counts: dict = field(default_factory=dict)


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


def _write_manifest(command: str, cfg: dict, run: _Run, started: float) -> None:
    """The reproducibility record beside the primary output: the resolved
    configuration, inputs, outputs, package version, runtime and counts."""
    manifest = {
        "command": command, "config": cfg, "seed": cfg.get("seed"), "inputs": run.inputs,
        "outputs": run.outputs, "version": __version__,
        "runtime_s": round(time.monotonic() - started, 6), "counts": run.counts,
    }
    _atomic_json(f"{cfg['output']}.manifest.json", manifest)


def _atomic_csv(path: str, header: list[str], rows) -> None:
    """Cells are ints, ``repr`` floats or empty, so none needs quoting."""
    _atomic_write_text(path, "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


def _write_signature(path: str, deltas, empirical, fitted=None) -> None:
    """The signature CSV of ``fit`` (its sidecar) and ``signature``; ``fitted`` may be absent."""
    fitted_cells = [""] * len(deltas) if fitted is None else map(_fmt, fitted)
    rows = zip(map(_fmt, deltas), map(_fmt, empirical), fitted_cells)
    _atomic_csv(path, ["delta", "empirical", "fitted"], rows)


def _load_params(path: str) -> ModelParams:
    try:
        return ModelParams.from_json(path)
    except (OSError, ValueError, TypeError) as exc:
        raise ValueError(f"cannot load model parameters from {path}: {exc}") from exc


def _load_path(csv_file: str, sidecar: str | None):
    sidecar = sidecar or f"{csv_file}.meta.json"
    try:
        return read_path_csv(csv_file, sidecar)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot load path from {csv_file} (+ {sidecar}): {exc}") from exc


def _write_path(path, out_csv: str) -> list[str]:
    sidecar = f"{out_csv}.meta.json"
    with _atomic_target(out_csv) as tmp_csv, _atomic_target(sidecar) as tmp_side:
        write_path_csv(path, tmp_csv, tmp_side)
    return [out_csv, sidecar]


def _grid_from_cfg(cfg: dict) -> np.ndarray:
    n, lo, hi = cfg["grid_points"], cfg["grid_min"], cfg["grid_max"]
    if n < 2 or not (0.0 < lo < hi):
        raise ValueError(f"invalid grid: min={lo}, max={hi}, points={n}")
    return np.geomspace(lo, hi, n)


def _signature_counts(path, windows) -> dict:
    """The work of a variance signature: events, window lengths kept and windows summed."""
    return {"events": path.n_events, "window_lengths": int(windows.size), "windows": int(windows.sum())}


# ---------------------------------------------------------------------------
# command implementations (each computes, writes its outputs and returns a _Run)
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict) -> _Run:
    params = _load_params(cfg["params"])
    path = simulate_path(params, cfg["t_start"], cfg["t_end"], cfg["v0"], cfg["seed"])
    outputs = _write_path(path, cfg["output"])
    summary = f"{path.n_events} events on ({path.t_start}, {path.t_end}] -> {cfg['output']}"
    return _Run([cfg["params"]], outputs, summary, counts={"events": path.n_events})


def _cmd_clean(cfg: dict) -> _Run:
    try:
        records = read_raw_csv(cfg["input"])
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read raw feed from {cfg['input']}: {exc}") from exc
    config = CleanConfig(tick_size=cfg["tick_size"], m_factor=cfg["m_factor"], apply_step1=cfg["step1"])
    result = clean_ticks(records, config)
    outputs = _write_path(result.path, cfg["output"])
    diag_text = "".join(line + "\n" for line in result.diagnostics)
    if cfg.get("diagnostics"):
        _atomic_write_text(cfg["diagnostics"], diag_text)
        outputs.append(cfg["diagnostics"])
    else:
        sys.stderr.write(diag_text)
    summary = (
        f"{len(records)} records -> {result.path.n_events + 1} prices, "
        f"{len(result.diagnostics)} diagnostic line(s) -> {cfg['output']}"
    )
    return _Run([cfg["input"]], outputs, summary, counts={"records": len(records), "events": result.path.n_events})


def _cmd_fit(cfg: dict) -> _Run:
    path = _load_path(cfg["input"], cfg.get("sidecar"))
    stats = collect_stats(path, _grid_from_cfg(cfg))
    fit = fit_signature(stats, family=cfg["family"])
    _atomic_json(cfg["output"], fit.to_dict())
    sig_file = cfg.get("signature_output") or f"{cfg['output']}.signature.csv"
    _write_signature(sig_file, fit.deltas, fit.empirical, fit.fitted)
    flags = f" boundary={list(fit.boundary_flags)}" if fit.boundary_flags else ""
    summary = f"family={cfg['family']} objective={fit.objective:.6e} converged={fit.converged}{flags}"
    unconverged = None if fit.converged else "optimizer did not converge; outputs written anyway"
    counts = {**_signature_counts(path, stats.counts), "nfev": int(fit.diagnostics["nfev"])}
    return _Run([cfg["input"]], [cfg["output"], sig_file], summary, unconverged, counts)


def _cmd_pmf(cfg: dict) -> _Run:
    params = _load_params(cfg["params"])
    try:
        result = return_pmf(params, cfg["t"], cfg["n_points"])
    except ArithmeticError as exc:
        raise ValueError(str(exc)) from exc
    rows = [[int(y), _fmt(p)] for y, p in zip(result.support, result.probabilities)]
    _atomic_csv(cfg["output"], ["y", "probability"], rows)
    summary = (
        f"t={cfg['t']} support [{result.support[0]}, {result.support[-1]}] "
        f"aliasing_bound={result.aliasing_bound:.3e} -> {cfg['output']}"
    )
    return _Run([cfg["params"]], [cfg["output"]], summary)


def _cmd_acf(cfg: dict) -> _Run:
    params = _load_params(cfg["params"])
    gamma, rho = theory_acf(params, cfg["delta"], cfg["k_max"])
    rows = [[k + 1, _fmt(g), _fmt(r)] for k, (g, r) in enumerate(zip(gamma, rho))]
    _atomic_csv(cfg["output"], ["k", "gamma", "rho"], rows)
    return _Run([cfg["params"]], [cfg["output"]], f"delta={cfg['delta']} k_max={cfg['k_max']} -> {cfg['output']}")


def _cmd_signature(cfg: dict) -> _Run:
    path = _load_path(cfg["input"], cfg.get("sidecar"))
    deltas, variances, windows = variance_grid(path, _grid_from_cfg(cfg))
    fitted = None
    inputs = [cfg["input"]]
    if cfg.get("fitted_params"):
        params = _load_params(cfg["fitted_params"])
        fitted = [return_cumulant(params, d, 2) / d for d in deltas]
        inputs.append(cfg["fitted_params"])
    _write_signature(cfg["output"], deltas, variances / deltas, fitted)
    summary = f"{deltas.size} grid points -> {cfg['output']}"
    return _Run(inputs, [cfg["output"]], summary, counts=_signature_counts(path, windows))


def _cmd_bootstrap(cfg: dict) -> _Run:
    params = _load_params(cfg["params"])
    family = cfg.get("family") or params.trawl.family.name
    try:
        result = bootstrap(
            params,
            span=cfg["span"],
            v0=cfg["v0"],
            n_paths=cfg["n_paths"],
            family=family,
            seed=cfg["seed"],
            deltas=_grid_from_cfg(cfg),
            n_workers=cfg["workers"],
        )
    except RuntimeError as exc:
        raise ValueError(str(exc)) from exc
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
    summary = f"{result.n_paths} paths, {result.n_nonconverged} nonconverged -> {cfg['output']}"
    unconverged = f"{result.n_nonconverged} replica(s) did not converge" if result.n_nonconverged else None
    return _Run([cfg["params"]], [cfg["output"]], summary, unconverged, {"replicas": result.n_paths, **result.work})


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; we want 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _default_workers() -> int:
    """``TRAWLPRICE_WORKERS`` when set and not empty, else the CPU affinity count."""
    env = os.environ.get("TRAWLPRICE_WORKERS")
    if env:
        return _whole(env, "TRAWLPRICE_WORKERS must be an integer >= 1", 1, text=True)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_GRID_DEFAULTS = dict(grid_min=float(DEFAULT_GRID[0]), grid_max=float(DEFAULT_GRID[-1]), grid_points=DEFAULT_GRID.size)

_REQUIRED = object()  # the default of an option that a run cannot do without

# each command's function and its options with their defaults, in flag order;
# a callable default is called when the options are resolved, and only
# for an option that neither a flag nor a config sets
_COMMANDS = {
    "simulate": (
        _cmd_simulate,
        {"params": _REQUIRED, "t_start": 0.0, "t_end": _REQUIRED, "v0": _REQUIRED, "seed": _REQUIRED,
         "output": _REQUIRED},
    ),
    "clean": (
        _cmd_clean,
        {"input": _REQUIRED, "tick_size": _REQUIRED, "m_factor": CleanConfig.m_factor,
         "step1": CleanConfig.apply_step1, "diagnostics": None, "output": _REQUIRED},
    ),
    "fit": (
        _cmd_fit,
        {"input": _REQUIRED, "sidecar": None, "family": "exponential", "signature_output": None,
         "output": _REQUIRED, **_GRID_DEFAULTS},
    ),
    "pmf": (_cmd_pmf, {"params": _REQUIRED, "t": _REQUIRED, "n_points": None, "output": _REQUIRED}),
    "acf": (_cmd_acf, {"params": _REQUIRED, "delta": _REQUIRED, "k_max": 10, "output": _REQUIRED}),
    "signature": (
        _cmd_signature,
        {"input": _REQUIRED, "sidecar": None, "fitted_params": None, "output": _REQUIRED, **_GRID_DEFAULTS},
    ),
    "bootstrap": (
        _cmd_bootstrap,
        {"params": _REQUIRED, "span": _REQUIRED, "v0": _REQUIRED, "n_paths": _REQUIRED, "family": None,
         "seed": _REQUIRED, "workers": _default_workers, "output": _REQUIRED, **_GRID_DEFAULTS},
    ),
}

_FLAG_HELP = {"seed": "random seed (bootstrap seeds its replicas with it)"}

# an option's type when it is not ``str``; a ``bool`` option is a switch
_FLAG_TYPES = {
    "t_start": float, "t_end": float, "v0": int, "seed": int, "tick_size": float,
    "m_factor": float, "step1": bool, "grid_min": float, "grid_max": float, "grid_points": int,
    "t": float, "n_points": int, "delta": float, "k_max": int, "span": float, "n_paths": int,
    "workers": int,
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="trawlprice", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"trawlprice {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, defaults) in _COMMANDS.items():
        sub = subs.add_parser(name, help=f"{name} (see README)")
        sub.add_argument("--config", default=None, help="JSON file of option values (a run manifest also works)")
        for key in defaults:
            kind = _FLAG_TYPES.get(key, str)
            how = {"action": "store_true"} if kind is bool else {"type": kind}
            sub.add_argument(_flag(key), **how, default=argparse.SUPPRESS, help=_FLAG_HELP.get(key))
    return parser


# options of the old multi-start fit that earlier manifests record; a
# loaded config drops them so those manifests still replay
_RETIRED_KEYS = ("n_starts", "fit_seed")


def _option_value(kind: type, value, default):
    """A loaded config value as its option's type ``kind``, as argparse stores a flag: a JSON
    boolean for ``bool``, a string for ``str``, a number or a string ``kind`` parses for ``float``
    and ``int`` (a whole number).  null stays null only where the option's ``default`` is None
    or the option is required, which it then leaves missing.  A ``ValueError`` otherwise."""
    if value is None:
        if default is None or default is _REQUIRED:
            return value
    elif kind in (bool, str):
        if isinstance(value, kind):
            return value
    elif isinstance(value, (str, numbers.Real)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            return _whole(value, kind.__name__, text=True) if kind is int else kind(value)
    raise ValueError(f"{value!r} is not a valid {kind.__name__}")


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        if isinstance(loaded, dict) and "config" in loaded and "command" in loaded:
            loaded = loaded["config"]  # accept a run manifest
        if not isinstance(loaded, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        loaded = {k: v for k, v in loaded.items() if k not in _RETIRED_KEYS}
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ValueError(f"config {args.config} has unknown key(s) {unknown}")
        for key, value in loaded.items():
            try:
                cfg[key] = _option_value(_FLAG_TYPES.get(key, str), value, defaults[key])
            except ValueError as exc:
                raise ValueError(f"config {args.config} key {key!r}: {exc}") from None
    explicit = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    cfg.update(explicit)
    missing = [k for k, d in defaults.items() if d is _REQUIRED and (cfg[k] is None or cfg[k] is _REQUIRED)]
    if missing:
        flags = ", ".join(map(_flag, missing))
        raise _UsageError(f"missing required option(s): {flags}")
    return {k: v() if callable(v) else v for k, v in cfg.items()}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _USAGE_ERROR
    func, defaults = _COMMANDS[args.command]
    try:
        cfg = _resolve_config(args, defaults)
        started = time.monotonic()
        run = func(cfg)
        _write_manifest(args.command, cfg, run, started)
    except _UsageError as exc:
        sys.stderr.write(f"trawlprice {args.command}: {exc}\n")
        return _USAGE_ERROR
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"trawlprice {args.command}: {exc}\n")
        return _DATA_ERROR
    print(f"{args.command}: {run.summary}")
    if run.unconverged:
        sys.stderr.write(f"{args.command}: {run.unconverged}\n")
        return _NO_CONVERGENCE
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
