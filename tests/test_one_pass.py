"""The one-pass checks and the shared name suffixes of the build path agree
with the per-element walks they replace.

Each walk is kept here as the reference: ``_series_walk`` (a scenario
array), ``_finite_walk``, ``_time_walk`` and ``_availability_walk``
(validation) and ``_names_walk`` (one name per variable, from its own
:class:`~enopt.formulate.VarRef`).  A one-pass check must give the same
result, the same ``ScenarioError`` text or the same violations in the same
order, also where a NaN or an infinity sits at a chosen step.
"""

import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from enopt import formulate
from enopt import model as M
from enopt import scenario
from enopt.formulate import compile_system
from enopt.model import Violation, validate_system
from enopt.scenario import ScenarioError, load_scenario, system_from_dict, system_to_dict

from conftest import coverage_fixture, single_node_system
from oracles import var_refs
from test_fingerprints import generated_system

T = 40
NAN, INF = float("nan"), float("inf")


# ---------------------------------------------------------------------------
# scenario arrays


def _series_walk(ctx, value, key, allow_scalar):
    """``scenario._series`` on an array, one entry at a time."""
    with ctx.enter(key):
        if not all(scenario._is_a(v, (int, float)) for v in value):
            ctx.fail("series entries must be numbers")
        return tuple(float(v) for v in value)


def _outcome(read, value):
    """What reading ``value`` as a load series gives: the floats (by repr,
    so NaN compares), or the error's text and exit code."""
    try:
        return repr(read(scenario._Ctx(Path(".")), value, "load", False))
    except ScenarioError as exc:
        return str(exc), exc.exit_code


class _Int(int):
    pass


class _Float(float):
    pass


_ARRAYS = {
    "numbers": [1, 2.5, -3, 0, -0.0],
    "empty": [],
    "non-finite": [NAN, INF, -INF, 1],
    "bool": [1.0, True],
    "only bools": [False],
    "string": [1.0, "2"],
    "None": [None, 1.0],
    "numpy float64": [np.float64(2.5), 1],
    "numpy float32": [np.float32(1.5)],
    "numpy int64": [np.int64(3)],
    "numpy bool": [np.bool_(True)],
    "subclasses": [_Int(3), _Float(1.5), 2],
    "nested": [[1.0]],
}


@pytest.mark.parametrize("name", sorted(_ARRAYS))
def test_a_series_array_reads_as_entry_by_entry(name):
    value = _ARRAYS[name]
    got = _outcome(scenario._series, value)
    assert got == _outcome(_series_walk, value)
    if isinstance(got, str):  # accepted: every entry a float
        assert all(type(v) is float for v in scenario._series(
            scenario._Ctx(Path(".")), value, "load", False))


@pytest.mark.parametrize("periods", [[0, 0, 1], [0, True, 1], [0, 1.0, 1], [0, None, 1],
                                     [0, np.int64(0), 1], [0, _Int(1), 1], [0, "0", 1]])
def test_period_indices_read_as_entry_by_entry(periods):
    doc = system_to_dict(single_node_system())
    doc["time"] = {"step_hours": [1.0, 1.0, 1.0], "period_of_step": periods}
    if all(scenario._is_a(p, int) for p in periods):
        assert system_from_dict(doc).time.period_of_step == tuple(int(p) for p in periods)
    else:
        with pytest.raises(ScenarioError) as err:
            system_from_dict(doc)
        assert str(err.value) == ("at system.time.period_of_step: "
                                  "expected an array of period indices")


def test_a_bool_in_a_load_names_its_path():
    doc = system_to_dict(single_node_system())
    doc["nodes"][0]["load"] = [10.0, True, 12.0]
    with pytest.raises(ScenarioError) as err:
        system_from_dict(doc)
    assert str(err.value) == "at system.nodes[0].load: series entries must be numbers"


# ---------------------------------------------------------------------------
# validation


def _finite_walk(where, value, out):
    """``model._check_finite``, walking every tuple entry by entry."""
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            out.append(Violation(M.NOT_FINITE, where, f"value must be finite, got {value}"))
    elif isinstance(value, tuple):
        for t, v in enumerate(value):
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                _finite_walk(f"{where}[{t}]", v, out)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _finite_walk(f"{where}.{f.name}", getattr(value, f.name), out)


def _time_walk(grid, out):
    """``model._check_time``, one step and one pair of periods at a time."""
    if grid.num_steps == 0:
        out.append(Violation(M.TIME_EMPTY, "time.step_hours", "at least one time step required"))
        return
    for t, h in enumerate(grid.step_hours):
        if not math.isfinite(h):
            out.append(Violation(M.NOT_FINITE, f"time.step_hours[{t}]",
                                 f"value must be finite, got {h}"))
        elif not h > 0:
            out.append(Violation(M.STEP_NONPOSITIVE, f"time.step_hours[{t}]",
                                 f"step duration must be > 0, got {h}"))
    periods = grid.period_of_step
    if len(periods) != grid.num_steps:
        out.append(Violation(M.PERIOD_LENGTH, "time.period_of_step",
                             f"expected {grid.num_steps} entries, got {len(periods)}"))
        return
    if any(b < a for a, b in zip(periods, periods[1:])):
        out.append(Violation(M.PERIOD_ORDER, "time.period_of_step",
                             "period indices must be non-decreasing"))
        return
    if periods[0] != 0 or sorted(set(periods)) != list(range(max(periods) + 1)):
        out.append(Violation(M.PERIOD_RANGE, "time.period_of_step",
                             "period indices must form a contiguous range starting at 0"))


def _availability_walk(avail, where, out):
    """``model._check_availability``, one share at a time."""
    for t, a in enumerate(avail):
        if not 0.0 <= a <= 1.0:
            out.append(Violation(M.AVAILABILITY_RANGE, f"{where}[{t}]",
                                 f"availability must lie in [0, 1], got {a}"))


def _checked(sys_, monkeypatch):
    """The report of ``sys_`` with the one-pass checks, then with the walks."""
    report = validate_system(sys_)
    with monkeypatch.context() as patched:
        patched.setattr(M, "_check_finite", _finite_walk)
        patched.setattr(M, "_check_time", _time_walk)
        patched.setattr(M, "_check_availability", _availability_walk)
        return report, validate_system(sys_)


def _series(at, value, base=0.5):
    values = [base] * T
    for t in at:
        values[t] = value
    return tuple(values)


def _system(field, series):
    """A T-step single-node system with ``series`` as one of its series."""
    sys_ = single_node_system(loads=(10.0,) * T)
    plant = sys_.components[0]
    if field == "load":
        nodes = (dataclasses.replace(sys_.nodes[0], load=series), sys_.nodes[1])
        return dataclasses.replace(sys_, nodes=nodes)
    if field == "availability":
        plant = dataclasses.replace(plant, capacity=dataclasses.replace(
            plant.capacity, availability=series))
    elif field == "fuel":
        plant = dataclasses.replace(plant, costs=dataclasses.replace(plant.costs, fuel=series))
    else:
        return dataclasses.replace(sys_, time=M.TimeGrid(series))
    return dataclasses.replace(sys_, components=(plant,))


_FIELDS = ("load", "availability", "fuel", "step_hours")
_PLACES = ((0,), (7,), (T - 1,), (3, 20, T - 1))


@pytest.mark.parametrize("field", _FIELDS)
@pytest.mark.parametrize("value", [NAN, INF, -INF])
@pytest.mark.parametrize("at", _PLACES, ids=str)
def test_a_non_finite_entry_gives_the_walks_violations(field, value, at, monkeypatch):
    report, walked = _checked(_system(field, _series(at, value)), monkeypatch)
    assert report == walked
    flagged = [v.where for v in report if v.code == M.NOT_FINITE]
    assert [w[w.rindex("[") + 1:-1] for w in flagged] == [str(t) for t in at]


@pytest.mark.parametrize("field", _FIELDS)
@pytest.mark.parametrize("value", [-1.0, -0.0, 0.0, 1.5])
def test_out_of_range_entries_give_the_walks_violations(field, value, monkeypatch):
    series = list(_series((2, 9), value))
    series[T - 2] = NAN  # a NaN next to them
    report, walked = _checked(_system(field, tuple(series)), monkeypatch)
    assert report == walked
    if field == "fuel":
        # the fuel check flags one negative entry, NaN never
        negative = [v for v in report if v.code == M.COST_NEGATIVE]
        assert len(negative) == any(f < 0 for f in series)


@pytest.mark.parametrize("field", ["load", "fuel", "step_hours"])
def test_a_finite_series_whose_sum_overflows_is_clean(field, monkeypatch):
    assert math.isinf(sum((1e308,) * T))
    report, walked = _checked(_system(field, (1e308,) * T), monkeypatch)
    assert report == walked
    assert not report.violations


def test_a_non_finite_half_plane_is_found_in_its_tuple(monkeypatch):
    sys_ = coverage_fixture()
    comps = list(sys_.components)
    k = next(i for i, c in enumerate(comps) if isinstance(c.conversion, M.FieldConversion))
    planes = list(comps[k].conversion.half_planes)
    planes[1] = dataclasses.replace(planes[1], intercept=NAN)
    comps[k] = dataclasses.replace(
        comps[k], conversion=dataclasses.replace(comps[k].conversion, half_planes=planes))
    report, walked = _checked(dataclasses.replace(sys_, components=tuple(comps)), monkeypatch)
    assert report == walked
    assert [v.where for v in report] == [
        f"components[{comps[k].id}].conversion.half_planes[1].intercept"]


@pytest.mark.parametrize("periods,code", [
    ((0,) * 10 + (1,) * 10 + (0,) * (T - 20), M.PERIOD_ORDER),  # decreasing
    ((0,) * (T - 1) + (2,), M.PERIOD_RANGE),  # gapped
    ((1,) * 10 + (2,) * (T - 10), M.PERIOD_RANGE),  # not starting at 0
    ((0,) * 10 + (1,) * 10 + (2,) * (T - 20), None),
    ((0,) * T, None),
], ids=["decreasing", "gapped", "nonzero-start", "three", "one"])
def test_period_order_and_range_give_the_walks_violations(periods, code, monkeypatch):
    sys_ = dataclasses.replace(single_node_system(loads=(10.0,) * T),
                               time=M.TimeGrid((1.0,) * T, periods))
    report, walked = _checked(sys_, monkeypatch)
    assert report == walked
    assert [v.code for v in report] == ([code] if code else [])


# ---------------------------------------------------------------------------
# variable names


def _names_walk(prog, stem_name):
    """Every variable's name from its own label (a step or period suffix
    holds word characters only, so ``stem_name`` may take the whole label)."""
    return [stem_name(ref.label()) for ref in var_refs(prog)]


def _ranges():
    """Blocks on ranges that share an axis and a start but not a count, or
    a count but not a start, and a block without a suffix."""
    prog = formulate.LinearProgram()
    for kind, owner, first, count in [
            (formulate.VarKind.OUTPUT, "a", {"step": 0}, 3),
            (formulate.VarKind.OUTPUT, "b", {"step": 0}, 5),
            (formulate.VarKind.ON, "a", {"step": 2}, 3),
            (formulate.VarKind.INSTALLED_PERIOD, "a", {"period": 0}, 3),
            (formulate.VarKind.BUILT, "a", {"period": 1}, 2),
            (formulate.VarKind.INSTALLED, "a", {}, 1)]:
        prog.add_variables(formulate.VarRef(kind, owner, **first), count)
    return prog.finalize()


def _renamed_ids(scenario_dir, tmp_path):
    """paper_system_48 with ids that ``_lp_name`` changes, none colliding."""
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    for i, record in enumerate(doc["system"]["components"] + doc["system"]["storages"]):
        record["id"] = f"{record['id']}-{i}.x"
    (tmp_path / "renamed.json").write_text(json.dumps(doc))
    shutil.copy(scenario_dir / "series_48.csv", tmp_path / "series_48.csv")
    return compile_system(load_scenario(tmp_path / "renamed.json").system)


@pytest.mark.parametrize("case", ["coverage-recurrence", "coverage-cumulative",
                                  "commitment_demo", "per-period", "renamed-ids", "ranges"])
@pytest.mark.parametrize("stem_name", [str, formulate._lp_name], ids=["str", "lp_name"])
def test_shared_suffixes_give_the_per_element_names(case, stem_name, scenario_dir, tmp_path):
    if case.startswith("coverage"):
        prog = compile_system(coverage_fixture(), storage_formulation=case.split("-")[1])
    elif case == "commitment_demo":
        prog = compile_system(load_scenario(scenario_dir / "commitment_demo.json").system)
    elif case == "per-period":
        prog = compile_system(generated_system(2, 36, 3))
    elif case == "ranges":
        prog = _ranges()
    else:
        prog = _renamed_ids(scenario_dir, tmp_path)
    names = formulate._block_names(prog, stem_name)
    assert names == _names_walk(prog, stem_name)
    assert len(set(names)) == prog.num_vars
    if case == "renamed-ids" and stem_name is formulate._lp_name:
        assert names != prog.labels()  # the ids do change
