"""The LP text of ``write_lp`` is byte-stable.

The sha256 of the LP text of each program in ``tests/test_fingerprints.py``
is pinned, and the text is compared with :func:`oracles.reference_lp_text`,
which formats every term and every name on its own, on programs built to
reach each formatting case and with the rows split over many write chunks.
"""

import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from enopt import cli, formulate
from enopt.formulate import (EQ, GE, LE, Family, LinearProgram, VarKind, VarRef, compile_system,
                             write_lp)
from enopt.scenario import EXIT_VALIDATION, system_from_dict

from oracles import reference_lp_text
from test_fingerprints import PROGRAMS

PINNED_LP = {
    "commitment_demo":
        "16afcaa52f6b86ec6724e90de696f37acb649935594b024d162326f69fbae758",
    "paper_system_48":
        "5bcb1470d058baf7b72edbf12db85b6892c92742850dc9bee30f4d8c3671259b",
    "paper_system":
        "91bbb9fadd78a6c984bb3503eb796f7c6c37930f43f155d95d5e5ae0cbbd7527",
    "coverage-recurrence":
        "8793f7c8ee350557874dd8b4e2ce2100594260582c64820b9c624024cdcfe25b",
    "coverage-cumulative":
        "9b776f1e0450fa1564321c4030dd866722968e228130dd7195c92ee45b49f4fd",
    "generated-1-24-1-recurrence":
        "bab5f7ee3dbdd9ef4facbd45284344b75c616cd7c466326896eb3263fdf77dfb",
    "generated-2-36-3-recurrence":
        "6afb24a2e66011fe16dd0bf46390d4e68a6a1a2243d4d9e06ffa1cebd0727304",
    "generated-3-12-2-cumulative":
        "90cb043de80acc6015e305f9b6e7f36ffc8fca20154d1998a68214279b0e727d",
    "generated-4-168-1-recurrence":
        "f5bc5f2ce764911ddcbc4ae206167e658fd71ddd53e6fa1e46e521bdb3fd7947",
}


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_lp_text_is_pinned(name, tmp_path):
    write_lp(PROGRAMS[name](), tmp_path / "program.lp")
    assert hashlib.sha256((tmp_path / "program.lp").read_bytes()).hexdigest() == PINNED_LP[name]


def _edge_program() -> LinearProgram:
    """Every case the writer formats: free, fixed, boxed (from -0.0) and
    integer columns, a per-period block, owners with non-word characters, an
    empty row, a -0.0 and a NaN right-hand side, rows with and without a
    step, a repeated column, and coefficients that are negative first,
    negative later, tiny, huge, NaN, -0.0 and 0.0."""
    prog = LinearProgram()
    x = prog.add_variables(VarRef(VarKind.OUTPUT, "pv-1.a b", 0), 4)
    free = prog.add_variable(VarRef(VarKind.RAMP_UP, "p/q"), -math.inf, math.inf)
    fixed = prog.add_variable(VarRef(VarKind.INSTALLED, "fix"), 3.5, 3.5)
    boxed = prog.add_variable(VarRef(VarKind.STORAGE_CAPACITY, "box"), -0.0, 2.5)
    below = prog.add_variable(VarRef(VarKind.RAMP_DOWN, "neg"), -7.25, math.inf)
    on = prog.add_variables(VarRef(VarKind.ON, "unit#2", 0), 3, 0.0, 1.0)
    period = prog.add_variables(VarRef(VarKind.INSTALLED_PERIOD, "pv-1.a b", period=0), 2)
    prog.add_rows(Family.CAPACITY_LIMIT, x + np.arange(4)[:, None] + np.array([0, 4]),
                  [[1.0, -0.1], [-1e-300, 1e300], [0.3, 0.3], [np.nan, -2.0]], LE,
                  [0.0, -0.0, 1.5, np.nan], owner="pv-1.a b", steps=np.arange(4))
    prog.add_rows(Family.NODE_BALANCE, [[free, fixed, free]], [[-1.0, 2.0, 3.0]], EQ, -0.0,
                  owner="a-b c")
    prog.add_row(Family.CO2_CAP, [(boxed, 0.0)], GE, 1.0)  # an empty row
    prog.add_row(Family.COMMIT_MAX, [(on, 1.0), (on + 2, -1.0), (below, 1.0 / 3.0)], LE, 2.0,
                 owner="unit#2", step=7)
    prog.add_row(Family.PERIOD_CAPACITY, [(period + 1, 5.0), (x, -5.0)], GE, -1e-17,
                 owner="pv-1.a b")
    prog.add_costs([x, x + 1, free, on + 1, period], [2.5, -0.0, -3.0, 1e-9, 0.1])
    prog.finalize()
    # add_rows drops zero coefficients; a stored -0.0 and 0.0 still print apart
    prog.A.data[prog.A.indptr[2]:prog.A.indptr[3]] = [-0.0, 0.0]
    return prog


def _written(prog: LinearProgram, tmp_path) -> tuple[str, str]:
    """The program's LP text written to a new path, then again over it."""
    texts = []
    for _ in range(2):
        write_lp(prog, tmp_path / "program.lp")
        texts.append((tmp_path / "program.lp").read_text())
    return tuple(texts)


def test_lp_text_matches_reference_on_every_case(tmp_path):
    prog = _edge_program()
    text = reference_lp_text(prog)
    for case in ("\\ empty row EQ21_", ": -0 output_pv_1_a_b_t2 + 0 storage", " <= -0\n",
                 " = -0\n", " <= nan\n", "EQ2_a_b_c_None_", "output_pv_1_a_b_t3",
                 "installed_period_pv_1_a_b_p1", " ramp_up_p_q free",
                 " installed_fix = 3.5", " -0 <= storage_capacity_box <= 2.5",
                 " -7.25 <= ramp_down_neg", "General\n on_unit_2_t0\n"):
        assert case in text, case
    assert _written(prog, tmp_path) == (text, text)


def test_lp_text_of_an_empty_program(tmp_path):
    prog = LinearProgram().finalize()
    assert _written(prog, tmp_path) == (reference_lp_text(prog),) * 2
    assert reference_lp_text(prog) == "Minimize\n obj: 0\nSubject To\nBounds\nEnd\n"


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_lp_text_is_the_same_across_write_chunks(tmp_path, monkeypatch, chunk):
    """Rows split over several chunks, down to a chunk boundary at every row."""
    monkeypatch.setattr(formulate, "_LP_CHUNK_ROWS", chunk)
    for name in ("commitment_demo", "paper_system_48", "paper_system",
                 "generated-2-36-3-recurrence"):
        prog = PROGRAMS[name]()
        assert prog.num_rows > 2 * chunk
        text = reference_lp_text(prog)
        assert _written(prog, tmp_path) == (text, text), name
    prog = _edge_program()
    assert _written(prog, tmp_path) == (reference_lp_text(prog),) * 2


def _twin_heat_pumps(scenario_dir, tmp_path):
    """paper_system_48 with a copy of ``heat_pump``: the two ids, heat_pump_b
    and heat_pump-b, differ only in a non-word character.  Returns the
    scenario document, written with its series file to ``tmp_path``."""
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    comps = doc["system"]["components"]
    pump = next(c for c in comps if c["id"] == "heat_pump")
    comps.append({**pump, "id": "heat_pump-b"})
    pump["id"] = "heat_pump_b"
    (tmp_path / "twins.json").write_text(json.dumps(doc))
    shutil.copy(scenario_dir / "series_48.csv", tmp_path / "series_48.csv")
    return doc


def test_write_lp_refuses_ids_that_meet_as_lp_names(scenario_dir, tmp_path):
    doc = _twin_heat_pumps(scenario_dir, tmp_path)
    prog = compile_system(system_from_dict(doc["system"], tmp_path))
    assert len(set(prog.labels())) == prog.num_vars  # the labels themselves differ
    with pytest.raises(ValueError, match="'heat_pump-b' and 'heat_pump_b'"):
        write_lp(prog, tmp_path / "program.lp")
    assert not (tmp_path / "program.lp").exists()


def test_cli_export_of_ids_that_meet_as_lp_names_exits_7(scenario_dir, tmp_path, capsys):
    _twin_heat_pumps(scenario_dir, tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path / "twins.json"), "--out", str(out),
                     "--export-lp"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "program.lp").exists() and not (out / "summary.txt").exists()
    assert cli.main(["run", str(tmp_path / "twins.json"), "--out", str(out)]) == 0
    capsys.readouterr()


def _period_blocks(owner, suffixed_first):
    """Two periods of installed_period of 'x', and installed of ``owner``,
    declared in either order."""
    prog = LinearProgram()
    blocks = [lambda: prog.add_variables(VarRef(VarKind.INSTALLED_PERIOD, "x", period=0), 2),
              lambda: prog.add_variable(VarRef(VarKind.INSTALLED, owner))]
    for declare in blocks if suffixed_first else blocks[::-1]:
        declare()
    return prog


@pytest.mark.parametrize("suffixed_first", [True, False])
def test_a_name_without_a_suffix_may_not_read_as_a_suffixed_one(suffixed_first):
    # installed of 'period_x_p1' is named installed_period_x_p1, the name of
    # the second period of installed_period of 'x'
    with pytest.raises(ValueError, match="'period_x_p1' and 'x'"):
        _period_blocks("period_x_p1", suffixed_first).labels()
    # outside the block's periods, or not numbered as the names number them,
    # the names differ
    for owner in ("period_x_p2", "period_x_p01", "period_x_t1", "period_x_p"):
        assert len(set(_period_blocks(owner, suffixed_first).labels())) == 3, owner
