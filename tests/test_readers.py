"""Readers fail one way: a malformed input raises ``ValueError``, and the CLI
exits 2 with one stderr line and no traceback.

Derandomised Hypothesis runs mutate the four inputs a user hands the
package: a model JSON, a written path CSV with its JSON sidecar, the
golden raw feed and a CLI config.  A mutant may still be valid; then it
must read without error.  Any other exception is a reader fault.
"""

import argparse
import copy
import functools
import json
import math
import operator
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import trawlprice.cli as cli
from trawlprice import (
    CleanConfig,
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    PricePath,
    TabulatedTrawl,
    TrawlSpec,
    clean_ticks,
    main,
    read_path_csv,
    read_raw_csv,
    write_path_csv,
)

DATA = Path(__file__).parent / "data"
FUZZ = settings(derandomize=True, max_examples=50, deadline=None, database=None)

MODELS = {
    "exponential": ModelParams(LevyMeasure({1: 0.02, -1: 0.01, 2: 0.005}), TrawlSpec(0.4, ExponentialTrawl(0.7))),
    "tabulated": ModelParams(
        LevyMeasure({1: 0.02}), TrawlSpec(0.5, TabulatedTrawl([-2.0, -1.0, 0.0], [0.2, 0.5, 1.0]))
    ),
}
MODEL_DOCS = {name: params.to_dict() for name, params in MODELS.items()}
PATH = PricePath(v0=100, t_start=0.0, t_end=10.0, times=[0.5, 1.25, 7.0], jumps=[1, -2, 1], seed=3)
SIDECAR = {"v0": 100, "t_start": 0.0, "t_end": 10.0, "seed": 3}
CONFIG = {"input": "raw.csv", "tick_size": 0.25, "m_factor": 9.5, "step1": True, "diagnostics": None, "output": "o.csv"}

DELETE = object()  # the op that removes the key
ODD_VALUES = [
    DELETE, None, True, False, 0, -1, 0.5, 2**70, 10**400, math.nan, math.inf, -math.inf,
    "", "x", "1", " 0.5 ", "nan", "1e400", [], [0.4], [[1.0], [2.0, 3.0]], {}, {"1": 0.1}, {"0": 1}, {"x": 1},
]
ODD_BYTES = [b"", b"x", b",", b"\n", b"-", b".", b"nan", b"inf", b"1e400", b"\x00", b"\xff", b"9" * 25, b" ",
             b'"', b"#", b"\r\n", b",,,,", b"1.5"]


def _nodes(doc, where=()):
    """Every position in a JSON document, the root included."""
    yield where
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, (*where, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, (*where, i))


def _mutated_doc(doc, where, value) -> str:
    """``doc`` as JSON text with the node at ``where`` replaced by ``value`` (or removed)."""
    doc = copy.deepcopy(doc)
    if not where:
        doc = {} if value is DELETE else value
    else:
        parent = functools.reduce(operator.getitem, where[:-1], doc)
        if value is DELETE:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
    return json.dumps(doc)


def _doc_mutation(docs: dict):
    """(name, where, value): a node of the named document and what replaces it."""
    return st.sampled_from(sorted(docs)).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(list(_nodes(docs[name]))), st.sampled_from(ODD_VALUES))
    )


def _byte_mutation(size: int):
    """(start, length, insert): the bytes ``[start, start + length)`` replaced by ``insert``."""
    return st.tuples(st.integers(0, size), st.integers(0, 12), st.sampled_from(ODD_BYTES))


def _mutated_bytes(data: bytes, mutation) -> bytes:
    start, length, insert = mutation
    return data[:start] + insert + data[start + length:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _path_files(workdir):
    csv_file, sidecar = workdir / "path.csv", workdir / "path.csv.meta.json"
    write_path_csv(PATH, csv_file, sidecar)
    return csv_file, sidecar


# ---------------------------------------------------------------------------
# the library: only ValueError escapes
# ---------------------------------------------------------------------------


@FUZZ
@given(mutation=_doc_mutation(MODEL_DOCS))
@example(mutation=("exponential", ("b",), [0.4]))
@example(mutation=("exponential", ("trawl", "params", "lambda"), None))
@example(mutation=("exponential", ("levy", "1"), {}))
@example(mutation=("exponential", ("trawl", "family"), ["exponential"]))
@example(mutation=("exponential", (), [1, 2]))
@example(mutation=("tabulated", ("trawl", "params", "s"), {}))
@example(mutation=("tabulated", ("trawl", "params", "d_tilde"), 10**400))
def test_model_json_reader_raises_only_value_error(mutation):
    name, where, value = mutation
    text = _mutated_doc(MODEL_DOCS[name], where, value)
    try:
        ModelParams.from_dict(json.loads(text))
    except ValueError:
        pass


@FUZZ
@given(mutation=_doc_mutation({"sidecar": SIDECAR}))
@example(mutation=("sidecar", ("t_start",), True))
@example(mutation=("sidecar", ("t_end",), "x"))
@example(mutation=("sidecar", ("v0",), DELETE))
def test_sidecar_reader_raises_only_value_error(workdir, mutation):
    csv_file, sidecar = _path_files(workdir)
    _, where, value = mutation
    sidecar.write_text(_mutated_doc(SIDECAR, where, value))
    try:
        read_path_csv(csv_file, sidecar)
    except ValueError:
        pass


@FUZZ
@given(mutation=_byte_mutation(80))  # longer than the file: a start past its end appends
def test_path_csv_reader_raises_only_value_error(workdir, mutation):
    csv_file, sidecar = _path_files(workdir)
    csv_file.write_bytes(_mutated_bytes(csv_file.read_bytes(), mutation))
    try:
        read_path_csv(csv_file, sidecar)
    except ValueError:
        pass


@FUZZ
@given(mutation=_byte_mutation(len((DATA / "raw_ticks.csv").read_bytes())))
def test_raw_feed_reader_raises_only_value_error(workdir, mutation):
    raw = workdir / "raw.csv"
    raw.write_bytes(_mutated_bytes((DATA / "raw_ticks.csv").read_bytes(), mutation))
    try:
        clean_ticks(read_raw_csv(raw), CleanConfig(tick_size=0.25, apply_step1=True))
    except ValueError:
        pass


@FUZZ
@given(mutation=_doc_mutation({"config": CONFIG}))
@example(mutation=("config", ("tick_size",), True))
@example(mutation=("config", ("step1",), "yes"))
def test_config_reader_raises_only_value_or_usage_error(workdir, mutation):
    # a config that leaves a required option missing is a usage error (exit 1)
    config = workdir / "config.json"
    _, where, value = mutation
    config.write_text(_mutated_doc(CONFIG, where, value))
    try:
        cli._resolve_config(argparse.Namespace(command="clean", config=str(config)), cli._COMMANDS["clean"][1])
    except (ValueError, cli._UsageError):
        pass


# ---------------------------------------------------------------------------
# the CLI: exit 2, one stderr line, no traceback
# ---------------------------------------------------------------------------


def _exits_two(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"trawlprice {argv[0]}: ") and err.count("\n") == 1 and "Traceback" not in err, err
    return err


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("b",), [0.4], "model JSON field 'b' must be a finite number, got [0.4]"),
        (("trawl", "params", "lambda"), None, "trawl parameter 'lambda' must be a finite number, got None"),
        (("levy", "1"), {}, "model JSON field 'levy' must map sizes to finite numbers, got {}"),
        (("trawl", "family"), ["exponential"], "unknown trawl family ['exponential']"),
        ((), [1, 2], "model JSON must be an object, got list"),
    ],
)
def test_cli_model_mutant_is_data_error(tmp_path, capsys, where, value, message):
    params = tmp_path / "params.json"
    params.write_text(_mutated_doc(MODEL_DOCS["exponential"], where, value))
    err = _exits_two(capsys, ["pmf", "--params", str(params), "--t", "1", "--output", str(tmp_path / "pmf.csv")])
    assert message in err
    assert not (tmp_path / "pmf.csv").exists()


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("t_start",), True, "sidecar t_start must be a finite number, got True"),
        (("t_end",), [10.0], "sidecar t_end must be a finite number, got [10.0]"),
        (("t_end",), math.inf, "sidecar t_end must be a finite number, got inf"),
    ],
)
def test_cli_sidecar_mutant_is_data_error(tmp_path, capsys, where, value, message):
    csv_file, sidecar = _path_files(tmp_path)
    sidecar.write_text(_mutated_doc(SIDECAR, where, value))
    err = _exits_two(capsys, ["signature", "--input", str(csv_file), "--output", str(tmp_path / "sig.csv")])
    assert message in err


@pytest.mark.parametrize(
    "key, value", [("tick_size", True), ("tick_size", "abc"), ("m_factor", [1.0]), ("step1", "yes"), ("tick_size", -1)]
)
def test_cli_config_mutant_is_data_error(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    doc = dict(CONFIG, input=str(DATA / "raw_ticks.csv"), output=str(tmp_path / "clean.csv"), **{key: value})
    config.write_text(json.dumps(doc))
    _exits_two(capsys, ["clean", "--config", str(config)])
    assert not (tmp_path / "clean.csv").exists()
