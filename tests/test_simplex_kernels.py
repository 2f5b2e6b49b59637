"""Reference tests for the simplex kernels.

The references below are the earlier implementations, kept here on purpose:
a full-basis ``splu`` solve followed by a sequential product-form eta loop
(ftran/btran), mask-based pricing and ratio test, and the structural basic
columns and LU bump built by scipy column indexing.  The slack-reduced LU
and the closed-form eta file round differently, so ftran/btran must agree
within ``TOL`` times the reference's largest entry, a bound fixed for
float64 arithmetic; pricing and the ratio test do the same arithmetic and
must agree exactly.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from enopt import formulate
from enopt.scenario import load_scenario
from enopt.solver import SolverError, simplex
from enopt.solver.core import FEASIBILITY_TOL, OPTIMALITY_TOL
from enopt.solver.simplex import (AT_LOWER, AT_UPPER, BASIC, FREE, PIVOT_TOL,
                                  REFACTOR_EVERY, BoundedSimplex, gather_columns)
from enopt.solver.standard import StandardForm, standardize

TOL = 1e-10


# -- references ----------------------------------------------------------------

def ref_ftran(lu, etas, col):
    w = lu.solve(col)
    for r, wcol in etas:
        t = w[r] / wcol[r]
        if t != 0.0:
            w = w - wcol * t
        w[r] = t
    return w


def ref_btran(lu, etas, cb):
    z = cb.astype(float).copy()
    for r, wcol in reversed(etas):
        zr = z[r]
        s = z @ wcol
        z[r] = (zr - (s - zr * wcol[r])) / wcol[r]
    return lu.solve(z, trans="T")


def ref_entering(s, d, bland):
    nb = s.status != BASIC
    movable = s.upper > s.lower
    viol = np.zeros(d.shape)
    lo = nb & movable & (s.status == AT_LOWER) & (d < -OPTIMALITY_TOL)
    up = nb & movable & (s.status == AT_UPPER) & (d > OPTIMALITY_TOL)
    fr = nb & movable & (s.status == FREE) & (np.abs(d) > OPTIMALITY_TOL)
    viol[lo] = -d[lo]
    viol[up] = d[up]
    viol[fr] = np.abs(d[fr])
    if not viol.any():
        return None
    if bland:
        return int(np.argmax(viol > 0.0))
    return int(np.argmax(viol))


def ref_ratio_test(s, q, sigma, w, bland):
    delta = sigma * w
    lims = np.full(s.m, math.inf)
    lbB = s.lower[s.basis]
    ubB = s.upper[s.basis]
    pos = delta > PIVOT_TOL
    neg = delta < -PIVOT_TOL
    with np.errstate(invalid="ignore"):
        lims[pos] = (s.xB[pos] - lbB[pos]) / delta[pos]
        lims[neg] = (s.xB[neg] - ubB[neg]) / delta[neg]
    np.maximum(lims, 0.0, out=lims)
    t_rows = lims.min() if s.m else math.inf
    own = s.upper[q] - s.lower[q]
    if own <= t_rows:
        return own, None
    if not math.isfinite(t_rows):
        return math.inf, None
    # Harris (1973): limits relaxed by the feasibility tolerance, capped at own
    with np.errstate(divide="ignore"):
        relaxed = lims + FEASIBILITY_TOL / np.abs(delta)
    cand = np.flatnonzero(lims <= min(relaxed.min(), own))
    if bland:
        r = cand[int(np.argmin(s.basis[cand]))]
    else:
        order = np.lexsort((s.basis[cand], -np.abs(w[cand])))
        r = cand[order[0]]
    return float(lims[r]), int(r)


def ref_leaving_row(s, bland):
    """The largest bound violation beyond the tolerance, the first row among
    equals (in Bland mode the lowest basic column), and its direction."""
    best, best_key, toward = None, None, 0.0
    for r in range(s.m):
        col = s.basis[r]
        below, above = s.lower[col] - s.xB[r], s.xB[r] - s.upper[col]
        viol = max(below, above)
        if viol <= FEASIBILITY_TOL:
            continue
        key = col if bland else -viol
        if best is None or key < best_key:
            best, best_key, toward = r, key, 1.0 if below > 0.0 else -1.0
    return best, toward


def ref_dual_ratio_test(s, d, alpha, bland):
    """The nonbasic columns whose reduced cost moves toward zero (any
    nonzero entry for a free column), the smallest ratio |d_j| / |alpha_j|
    with a tie window of 1e-9 * (1 + t), then the largest |alpha_j| and the
    lowest index (in Bland mode the lowest index alone)."""
    free = set(s.free.tolist())
    cands = []
    for j in range(s.A.shape[1]):
        sign = s.price_sign[j]
        if sign * alpha[j] > PIVOT_TOL:
            room = -d[j] * sign
        elif j in free and abs(alpha[j]) > PIVOT_TOL:
            room = abs(d[j])
        else:
            continue
        cands.append((max(room, 0.0) / abs(alpha[j]), j))
    if not cands:
        return None
    t = min(ratio for ratio, _ in cands)
    tied = [j for ratio, j in cands if ratio <= t + 1e-9 * (1.0 + t)]
    if bland:
        return tied[0]
    return min(tied, key=lambda j: (-abs(alpha[j]), j))


def ref_structural_and_bump(s):
    """The structural basic columns ``A[:, cols]`` and the bump (their
    uncovered rows), built by scipy indexing."""
    S = s.A[:, s.basis[s.pos_struct]]
    bump_row = np.full(s.m, -1, dtype=np.int64)
    bump_row[s.rows_bump] = np.arange(s.rows_bump.size)
    keep = bump_row[S.indices] >= 0
    kept = np.concatenate(([0], np.cumsum(keep)))
    nb = s.rows_bump.size
    bump = sp.csc_matrix((S.data[keep], bump_row[S.indices[keep]], kept[S.indptr]),
                         shape=(nb, nb))
    return S, bump


def same_arrays(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("data", "indices", "indptr"))


def same_csc(a, b):
    return a.shape == b.shape and a.indices.dtype == b.indices.dtype and same_arrays(a, b)


def structural_csc(s):
    """The structural basic columns ``_refactor`` keeps as raw arrays."""
    indptr, indices, data = s.S
    return sp.csc_matrix((data, indices, indptr), shape=(s.m, s.pos_struct.size))


# -- states ----------------------------------------------------------------------

class _Stop(Exception):
    pass


class RecordingSimplex(BoundedSimplex):
    """Keeps the basis of the last factorisation and the (row, w) of every
    pivot since, and stops the solve once ``stop(self)`` is true."""

    stop = staticmethod(lambda s: False)

    def _refactor(self):
        super()._refactor()
        self.ref_basis = self.basis.copy()
        self.ref_etas = []

    def _push_eta(self, r, w):
        self.ref_etas.append((r, w.copy()))
        super()._push_eta(r, w)
        if self.stop(self):
            raise _Stop


def fresh(std):
    return RecordingSimplex(std, std.lower, std.upper)


def run_until(std, stop):
    s = fresh(std)
    s.stop = stop
    with pytest.raises(_Stop):
        s.solve()
    return s


@pytest.fixture(scope="module")
def desk_std(scenario_dir):
    scn = load_scenario(scenario_dir / "paper_system_48.json")
    return standardize(formulate.compile_system(scn.system))


def _random_std(rng, m, n, senses, n_free=0):
    """A feasible random program in standard form (A | I) x = b, with the
    row senses in the slack bounds, as ``standardize`` lays it out; the
    first ``n_free`` structural columns are free."""
    A = sp.random(m, n, density=0.3, random_state=rng, format="csc")
    A.data = rng.uniform(-2.0, 2.0, A.data.size)
    x0 = rng.uniform(0.0, 1.0, n)
    b = A @ x0
    slack_lo = np.where(senses == "<=", 0.0, np.where(senses == ">=", -np.inf, 0.0))
    slack_hi = np.where(senses == "<=", np.inf, 0.0)
    lower = np.concatenate([np.zeros(n), slack_lo])
    upper = np.concatenate([np.full(n, 2.0), slack_hi])
    lower[:n_free], upper[:n_free] = -np.inf, np.inf
    cost = np.concatenate([rng.uniform(-1.0, 1.0, n), np.zeros(m)])
    full = sp.hstack([A, sp.identity(m, format="csc")], format="csc")
    return StandardForm(full, b, lower, upper, cost, n, np.arange(0))


def check_kernels(s, rng):
    """ftran/btran against the full-basis reference; returns the pairs
    compared."""
    lu = splu(s.A[:, s.ref_basis].tocsc())
    cols = [s._column(j) for j in range(0, s.A.shape[1], max(1, s.A.shape[1] // 25))]
    cols.append(rng.standard_normal(s.m))
    for col in cols:
        ref = ref_ftran(lu, s.ref_etas, col)
        assert np.max(np.abs(s._ftran(col) - ref)) <= TOL * max(np.max(np.abs(ref)), 1e-300)
    rhs = [s.cost[s.basis], rng.standard_normal(s.m)]
    rhs += [np.eye(1, s.m, r)[0] for r in (0, s.m // 2, s.m - 1)]
    for cb in rhs:
        ref = ref_btran(lu, s.ref_etas, cb)
        assert np.max(np.abs(s._btran(cb) - ref)) <= TOL * max(np.max(np.abs(ref)), 1e-300)
    return len(cols) + len(rhs)


def check_pricing_and_ratio(s, rng, kinds):
    """``_entering``, ``_ratio_test``, ``_leaving_row`` and
    ``_dual_ratio_test`` return exactly what the references return; records
    which ratio-test outcomes occurred in ``kinds``."""
    # the incrementally kept pricing signs match the statuses and bounds
    movable = s.upper > s.lower
    assert np.array_equal(s.price_sign, np.where(
        movable & (s.status == AT_LOWER), -1.0,
        np.where(movable & (s.status == AT_UPPER), 1.0, 0.0)))
    assert np.array_equal(s.free, np.flatnonzero(movable & (s.status == FREE)))

    # the true costs, and costs of both signs as in a cost-modified program
    ds = [s._price(cost)[1] for cost in (s.cost, rng.standard_normal(s.A.shape[1]))]
    # coarse values make many exact ties for the tie-breaks to settle
    ds.append(np.round(rng.standard_normal(s.A.shape[1]), 1) * 1e-3)
    # reduced costs exactly at the optimality tolerance are not violations
    edge = np.where(rng.random(s.A.shape[1]) < 0.5, OPTIMALITY_TOL, -OPTIMALITY_TOL)
    ds.append(edge)
    # ... also when Bland's rule looks for the first real violation behind them
    at_lower = np.flatnonzero((s.status == AT_LOWER) & (s.upper > s.lower))
    ds.append(np.where(np.arange(edge.size) == at_lower[-1], -1.0, edge))
    for d in ds:
        for bland in (False, True):
            assert s._entering(d, bland) == ref_entering(s, d, bland)

    # the dual pass: the leaving row, at this point and at one pushed out of
    # its bounds with many equal violations, and the entering column for
    # tableau rows, their entries also spread over many magnitudes
    xB = s.xB
    pushed = xB.copy()
    out = rng.random(s.m) < 0.3
    pushed[out] = np.where(rng.random(out.sum()) < 0.5, -1.0, 5.0)
    for point in (xB, pushed):
        s.xB = point
        for bland in (False, True):
            assert s._leaving_row(bland) == ref_leaving_row(s, bland)
    s.xB = xB
    for r in range(0, s.m, max(1, s.m // 6)):
        alpha = s.AT @ s._btran(np.eye(1, s.m, r)[0])
        spread = alpha.copy()
        scaled = rng.random(alpha.size) < 0.3
        spread[scaled] *= 10.0 ** rng.uniform(3.0, 12.0, scaled.sum())
        # ratios near 1e3, some apart by more than 1e-9 but within the tie
        # window 1e-9 * (1 + t)
        near = (1e3 + rng.choice([0.0, 4e-7, 3e-6], alpha.size)) * np.abs(alpha)
        d_near = np.where(s.price_sign != 0.0, -s.price_sign, 1.0) * near
        for d, a, toward, bland in itertools.product(ds + [d_near], (alpha, spread),
                                                     (1.0, -1.0), (False, True)):
            assert s._dual_ratio_test(d, toward * a, bland) == ref_dual_ratio_test(
                s, d, toward * a, bland)

    nonbasic = np.flatnonzero(s.status != BASIC)
    for q in nonbasic[:: max(1, nonbasic.size // 40)]:
        w = s._ftran(s._column(q))
        # entries exactly at the pivot tolerance never limit the step
        w[rng.random(s.m) < 0.2] = PIVOT_TOL
        # entries spread over many magnitudes give Harris's relaxed limits,
        # FEASIBILITY_TOL / |delta|, widths no fixed tie window has
        spread = w.copy()
        scaled = rng.random(s.m) < 0.3
        spread[scaled] *= 10.0 ** rng.uniform(3.0, 12.0, scaled.sum())
        for w, sigma, bland in itertools.product((w, spread), (1.0, -1.0), (False, True)):
            got = s._ratio_test(int(q), sigma, w, bland)
            want = ref_ratio_test(s, int(q), sigma, w, bland)
            assert got == want
            assert type(got[0]) is type(want[0])
            if math.isinf(got[0]):
                kinds.add("unbounded")
            else:
                kinds.add("flip" if got[1] is None else "pivot")
    # a column with an infinite range that no row limits
    for q in np.flatnonzero((s.status != BASIC) & np.isinf(s.upper))[:1]:
        w = np.zeros(s.m)
        w[0] = PIVOT_TOL / 2
        assert s._ratio_test(int(q), 1.0, w, False) == (math.inf, None)
        assert ref_ratio_test(s, int(q), 1.0, w, False) == (math.inf, None)
        kinds.add("unbounded")


# -- tests -----------------------------------------------------------------------

@pytest.mark.parametrize("since_refactor", [0, 1, REFACTOR_EVERY - 1])
def test_kernels_match_reference_on_desk_solve(desk_std, since_refactor):
    # stop after at least one full eta store, so the bump is non-trivial
    s = run_until(desk_std, lambda s: s.iterations > REFACTOR_EVERY
                  and s.n_etas == since_refactor)
    assert len(s.ref_etas) == s.n_etas == since_refactor
    assert s.rows_bump.size > 0
    rng = np.random.default_rng(since_refactor)
    assert check_kernels(s, rng) > 0
    kinds = set()
    check_pricing_and_ratio(s, rng, kinds)
    assert {"pivot", "flip", "unbounded"} <= kinds


def test_kernels_match_reference_mid_dual_with_ge_and_equality_slacks_left():
    rng = np.random.default_rng(3)
    m, n = 90, 130
    senses = rng.choice(np.array(["=", ">=", "<="]), size=m, p=[0.5, 0.3, 0.2])
    std = _random_std(rng, m, n, senses, n_free=4)
    s = run_until(std, lambda s: s.iterations > REFACTOR_EVERY and s.n_etas == 5)
    # still in the dual pass: some basic variable is outside its bounds
    assert s._leaving_row(False)[0] is not None
    # factorised after slacks of both GE and equality rows left the basis
    left = np.setdiff1d(np.arange(m), s.ref_basis[s.ref_basis >= s.n_struct] - s.n_struct)
    assert np.any(senses[left] == ">=") and np.any(senses[left] == "=")
    assert s.rows_bump.size > 0
    check_kernels(s, rng)
    check_pricing_and_ratio(s, rng, set())


def test_kernels_match_reference_with_free_columns_nonbasic():
    """Free columns enter the dual ratio test on any usable entry: a state
    a few pivots in, before every free column has entered the basis."""
    rng = np.random.default_rng(7)
    m, n = 60, 90
    senses = rng.choice(np.array(["=", ">=", "<="]), size=m, p=[0.5, 0.3, 0.2])
    s = run_until(_random_std(rng, m, n, senses, n_free=6), lambda s: s.iterations >= 3)
    assert s.free.size > 0 and s.n_etas > 0
    check_kernels(s, rng)
    check_pricing_and_ratio(s, rng, set())


def test_all_slack_basis_needs_no_factorisation(monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called for an all-slack basis")

    monkeypatch.setattr(simplex, "splu", no_splu)
    rng = np.random.default_rng(5)
    std = _random_std(rng, 20, 30, np.array(["<="] * 20))
    std.b = np.abs(std.b)  # x = 0 is feasible: every slack stays basic
    s = fresh(std)
    assert np.all(s.basis >= s.n_struct)
    assert s.lu is None and s.rows_bump.size == 0
    check_kernels(s, rng)
    check_pricing_and_ratio(s, rng, set())


def test_bump_covering_the_whole_basis():
    rng = np.random.default_rng(7)
    m = 25
    std = _random_std(rng, m, m, np.array(["<="] * m))
    std.A = sp.hstack([sp.random(m, m, density=0.2, random_state=rng, format="csc")
                       + sp.identity(m, format="csc") * 3.0,
                       sp.identity(m, format="csc")], format="csc")
    s = fresh(std)
    for j in range(m):  # structural j replaces slack j in basis position j
        s._set_status(s.n_struct + j, AT_LOWER)
        s.basis[j] = j
        s._set_status(j, BASIC)
    s._refactor()
    assert s.rows_bump.size == m and s.pos_unit.size == 0
    check_kernels(s, rng)
    for r, q in ((3, m + 3), (10, m + 10)):  # two slacks pivot back in
        w = s._ftran(s._column(q))
        s._set_status(s.basis[r], AT_LOWER)
        s.basis[r] = q
        s._set_status(q, BASIC)
        s._push_eta(r, w)
    check_kernels(s, rng)
    check_pricing_and_ratio(s, rng, set())


def _recording_splu(monkeypatch):
    """Make ``simplex.splu`` record the (n, data, indices, indptr) of every
    bump it factorises; returns the list it appends to."""
    seen = []
    original = simplex.splu

    def recording_splu(n, data, indices, indptr):
        seen.append((n, data.copy(), indices.copy(), indptr.copy()))
        return original(n, data, indices, indptr)

    monkeypatch.setattr(simplex, "splu", recording_splu)
    return seen


def _recorded_bump(monkeypatch, s):
    """Refactor s and return the bump ``splu`` received as a CSC matrix
    (None if none)."""
    seen = _recording_splu(monkeypatch)
    s._refactor()
    if not seen:
        return None
    n, data, indices, indptr = seen[0]
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def test_gathered_columns_equal_column_indexing(desk_std):
    rng = np.random.default_rng(11)
    s = fresh(desk_std)
    n_cols = s.A.shape[1]
    picks = [np.arange(0), np.arange(n_cols), np.arange(n_cols)[::-1],
             np.array([n_cols - 1, 0, n_cols - 1])]
    picks += [rng.choice(n_cols, size=k, replace=False) for k in (1, 7, s.m)]
    for cols in picks:
        ref = s.A[:, cols]
        indptr, indices, data = gather_columns(s.A, cols)
        assert same_csc(sp.csc_matrix((data, indices, indptr), shape=ref.shape), ref)
        assert indptr.dtype == ref.indptr.dtype


@pytest.mark.parametrize("since_refactor", [0, 1])
def test_refactor_basis_matrices_equal_reference_on_desk_solve(monkeypatch, desk_std,
                                                               since_refactor):
    s = run_until(desk_std, lambda s: s.iterations > REFACTOR_EVERY
                  and s.n_etas == since_refactor)
    bump = _recorded_bump(monkeypatch, s)
    S_ref, bump_ref = ref_structural_and_bump(s)
    assert bump is not None and same_csc(structural_csc(s), S_ref)
    assert same_arrays(bump, bump_ref)


def test_refactor_basis_matrices_on_all_slack_and_whole_bump_bases(monkeypatch):
    rng = np.random.default_rng(13)
    std = _random_std(rng, 20, 30, np.array(["<="] * 20))
    std.b = np.abs(std.b)
    s = fresh(std)
    assert _recorded_bump(monkeypatch, s) is None
    assert s.pos_struct.size == 0 and same_csc(structural_csc(s), ref_structural_and_bump(s)[0])

    m = 25
    std = _random_std(rng, m, m, np.array(["<="] * m))
    std.A = sp.hstack([sp.random(m, m, density=0.2, random_state=rng, format="csc")
                       + sp.identity(m, format="csc") * 3.0,
                       sp.identity(m, format="csc")], format="csc")
    s = fresh(std)
    for j in range(m):  # every row holds a structural column, rotated
        s._set_status(s.n_struct + j, AT_LOWER)
        s.basis[j] = (j + 5) % m
        s._set_status(s.basis[j], BASIC)
    bump = _recorded_bump(monkeypatch, s)
    S_ref, bump_ref = ref_structural_and_bump(s)
    assert s.rows_bump.size == m and same_csc(structural_csc(s), S_ref)
    assert same_arrays(bump, bump_ref)
    check_kernels(s, rng)


def _assert_same_lu(n, data, indices, indptr, rng):
    """``simplex.splu`` on the raw arrays equals scipy's ``splu`` on the
    matrix, factors and solves bit for bit."""
    ours = simplex.splu(n, data, indices, indptr)
    ref = splu(sp.csc_matrix((data, indices, indptr), shape=(n, n)))
    assert np.array_equal(ours.perm_r, ref.perm_r) and np.array_equal(ours.perm_c, ref.perm_c)
    assert same_arrays(ours.L, ref.L) and same_arrays(ours.U, ref.U)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        for trans in ("N", "T"):
            assert ours.solve(rhs, trans=trans).tobytes() == ref.solve(rhs, trans=trans).tobytes()


def test_raw_superlu_call_matches_splu(monkeypatch, desk_std):
    rng = np.random.default_rng(17)
    for n, density in ((1, 1.0), (6, 0.5), (40, 0.1), (300, 0.01)):
        M = sp.random(n, n, density=density, random_state=rng, format="csc")
        M = (M + sp.identity(n, format="csc") * 2.0).tocsc()
        _assert_same_lu(n, M.data, M.indices, M.indptr.astype(np.int64), rng)
    # the bumps of every refactorisation of a solve, cold and mid-solve
    bumps = _recording_splu(monkeypatch)
    s = fresh(desk_std)
    assert s.solve().status == "optimal"
    monkeypatch.undo()
    assert len(bumps) > 2 and max(b[0] for b in bumps) > 20
    for bump in bumps:
        _assert_same_lu(*bump, rng)


class DualWatchingSimplex(BoundedSimplex):
    """Records the largest reduced-cost violation the dual pass meets."""

    worst = 0.0

    def _dual_ratio_test(self, d, alpha, bland):
        self.worst = max(self.worst, float(self._violations(d).max(initial=0.0)))
        return super()._dual_ratio_test(d, alpha, bland)


@pytest.mark.parametrize("seed", range(4))
def test_dual_pass_stays_dual_feasible_under_cost_modification(seed):
    # negative costs and free columns make the slack basis dual infeasible;
    # the shifted costs must keep every dual pivot dual feasible
    rng = np.random.default_rng(40 + seed)
    m, n = 40, 60
    senses = rng.choice(np.array(["=", ">=", "<="]), size=m)
    std = _random_std(rng, m, n, senses, n_free=3)
    assert np.any(std.cost[3:n] < 0)
    s = DualWatchingSimplex(std, std.lower, std.upper)
    out = s.solve()
    assert out.status in ("optimal", "unbounded")
    assert s.worst <= 10 * OPTIMALITY_TOL


class DamagedColumnSimplex(BoundedSimplex):
    """Entering columns come back 1e-6 too large, so the pivot element from
    the column disagrees with the tableau row's: on every pivot (``always``)
    or only on the first one made with etas in the file.  ``events`` records
    each damage and each factorisation with the iteration count."""

    always = False
    damaged = 0

    def _column(self, j):
        col = super()._column(j)
        if self.always or (self.n_etas and not self.damaged):
            self.damaged += 1
            self.events.append(("damaged", self.iterations))
            col *= 1.0 + 1e-6
        return col

    def _refactor(self):
        self.events = getattr(self, "events", []) + [("refactor", self.iterations)]
        super()._refactor()


def test_dual_pivot_disagreement_refactors_and_redoes_the_iteration(desk_std):
    plain = BoundedSimplex(desk_std, desk_std.lower, desk_std.upper).solve()
    s = DamagedColumnSimplex(desk_std, desk_std.lower, desk_std.upper)
    out = s.solve()
    assert s.damaged == 1
    # the damaged pivot is not taken: the basis is refactored before any other
    at = s.events.index(("damaged", 1))
    assert s.events[at + 1] == ("refactor", 1)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(plain.objective, rel=1e-12)


def test_dual_pivot_disagreement_on_a_fresh_factorisation_raises(desk_std):
    s = DamagedColumnSimplex(desk_std, desk_std.lower, desk_std.upper)
    s.always = True
    with pytest.raises(SolverError, match=r"pivot element of row \d+ and column \d+"):
        s.solve()
    assert s.damaged == 1 and s.iterations == 0
