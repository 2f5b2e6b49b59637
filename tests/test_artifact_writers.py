"""The artifact writers of ``enopt run`` against the code they replaced.

``reference_json`` is how ``report.json`` and ``plot_data.json`` were
written before: non-finite floats turned into None by a walk over the
document, then CPython's ``json.dumps`` with ``indent=2``.
``reference_csv`` is the per-cell loop that wrote ``schedule.csv`` and
``fill.csv``.  The writers must give the same bytes.
"""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from enopt import cli
from enopt.formulate import compile_system, write_lp
from enopt.scenario import load_scenario, save_scenario, scenario_to_dict

SHIPPED = ["commitment_demo", "commitment_48", "paper_system_48", "paper_system"]


def _null_if_not_finite(value):
    if isinstance(value, dict):
        return {k: _null_if_not_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_if_not_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def reference_json(doc) -> str:
    return json.dumps(_null_if_not_finite(doc), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def reference_csv(header, columns, times) -> str:
    lines = [",".join(["time"] + header)]
    for t in range(len(times)):
        cells = [cli._fmt(times[t])] + [cli._fmt(col[t]) for col in columns]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.fixture
def recorded(monkeypatch):
    """Every document and CSV table the writers are given during a run,
    with the text each wrote (``(reference text, written text)``)."""
    pairs = []
    json_text, write_csv = cli._json_text, cli._write_csv

    def recording_json(doc):
        text = json_text(doc)
        pairs.append((reference_json(doc), text))
        return text

    def recording_csv(path, header, columns, times):
        write_csv(path, header, columns, times)
        pairs.append((reference_csv(header, columns, times), Path(path).read_text()))

    monkeypatch.setattr(cli, "_json_text", recording_json)
    monkeypatch.setattr(cli, "_write_csv", recording_csv)
    return pairs


def _run(scn, out_dir):
    report, sol, code = cli.run(scn, out_dir)
    assert report is not None and code == cli.EXIT_OPTIMAL
    return report


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenarios_write_the_reference_bytes(scenario_dir, tmp_path, recorded, name):
    scn = load_scenario(scenario_dir / f"{name}.json")
    _run(scn, tmp_path)
    written = {p.name for p in tmp_path.iterdir()}
    assert {"report.json", "schedule.csv"} <= written
    assert len(recorded) == len(written & {"report.json", "schedule.csv", "fill.csv"})
    for want, got in recorded:
        assert got == want
    assert (tmp_path / "report.json").read_text() == recorded[-1][1]


@pytest.mark.parametrize("name", ["commitment_demo", "paper_system_48"])
def test_plot_data_writes_the_reference_bytes(scenario_dir, tmp_path, recorded, name):
    doc = json.loads((scenario_dir / f"{name}.json").read_text())
    doc.setdefault("outputs", {})["plot_data"] = True
    for sidecar in scenario_dir.glob("*.csv"):  # series resolve next to the file
        shutil.copy(sidecar, tmp_path)
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    _run(load_scenario(tmp_path / "scenario.json"), tmp_path / "out")
    plot = (tmp_path / "out" / "plot_data.json").read_text()
    assert [got for _, got in recorded][-1] == plot
    for want, got in recorded:
        assert got == want
    assert set(json.loads(plot)) == {"time_hours", "loads", "schedules", "storage_fill"}


EDGE_DOCUMENTS = [
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "ok": 1.5},
    {"list": [1.0, math.nan, 2.0, math.inf, -math.inf], "floats": [0.1, 2.5e-300, 1e16]},
    {"per_period": (1.0, math.nan, 3.0), "pair": (math.inf,), "empty_tuple": ()},
    {"zero": 0.0, "negative_zero": -0.0, "big": 1e16, "small": 5e-324, "list": [-0.0, 0.0]},
    {"bools": [True, False], "true": True, "false": False, "none": None, "ints": [0, -3, 2 ** 70],
     "int": 7, "mixed": [1, 2.0, None, True, "x", math.nan]},
    {"empty_dict": {}, "empty_list": [], "nested": {"a": {}, "b": [[], {}], "c": [[1.0, 2.0]]}},
    {"quote\"back\\slash": "tab\tnewline\ncontrol\x01", "café": "über ☃ \U0001f600",
     "": "", "z": {"été": [1.0], "a b": -2.5}},
    {"numpy floats": list(np.array([1.0, -0.0, np.nan, 1e16, np.inf])),
     "numpy scalar": np.float64(2.5), "numpy nan": np.float64(np.nan)},
    {"b": 1.0, "a": 2.0, "B": 3.0, "_": 4.0, "10": 5.0, "9": 6.0},
    {"deep": [[[math.nan, 1.0], [2.0]], {"x": (math.inf, 0.5)}]},
]


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS)
def test_edge_documents_write_the_reference_bytes(doc):
    assert cli._json_text(doc) == reference_json(doc)


def test_a_value_json_cannot_write_is_refused():
    with pytest.raises(TypeError):
        cli._json_text({"count": np.int64(3)})
    with pytest.raises(TypeError):
        cli._json_text({1: 2.0})  # only string keys


def test_edge_columns_write_the_reference_bytes(tmp_path):
    times = np.array([0.0, 0.5, 1.5, 3.0, 1e16, 7.25])
    columns = [np.array([1.0, -0.0, np.nan, np.inf, -np.inf, 0.1]),
               np.array([1e-300, -1e16, 123456789.123456789, 2.0 / 3.0, -5.5, 0.0]),
               np.array([3, -1, 0, 7, 2, 1])]
    header = ["a", "b.secondary", "c"]
    cli._write_csv(tmp_path / "t.csv", header, columns, times)
    assert (tmp_path / "t.csv").read_text() == reference_csv(header, columns, times)
    cli._write_csv(tmp_path / "empty.csv", [], [], np.zeros(0))
    assert (tmp_path / "empty.csv").read_text() == reference_csv([], [], np.zeros(0))


def test_an_artifact_is_rewritten_in_place_to_exactly_its_text(scenario_dir, tmp_path):
    """``_write``, ``write_lp`` and ``save_scenario`` over a longer file, a
    shorter one and no file leave the bytes ``Path.write_text`` leaves."""
    text = "time,a\n0,1.5\nüber ☃\n"
    scn = load_scenario(scenario_dir / "commitment_demo.json")
    write_lp(compile_system(scn.system), tmp_path / "program.lp")
    writers = [(cli._write, text),
               (lambda path, _: write_lp(compile_system(scn.system), path),
                (tmp_path / "program.lp").read_text()),
               (lambda path, _: save_scenario(scn, path),
                json.dumps(scenario_to_dict(scn), indent=2, sort_keys=True) + "\n")]
    for write, want in writers:
        (tmp_path / "want").write_text(want)
        for old in ("x" * (len(want) + 1000), "", None):
            path = tmp_path / "artifact"
            if old is None:
                path.unlink()
            else:
                path.write_text(old)
            write(path, want)
            assert path.read_bytes() == (tmp_path / "want").read_bytes()
