"""Brute-force oracles the solver is checked against.

Both are independent of the package's solver: LPs are solved by enumerating
basic points (intersections of n constraint hyperplanes) over a compact
polytope, MILPs by enumerating all integer fixings and handing the remaining
continuous problem to the vertex oracle.  A third check tests an
infeasibility certificate directly against the standard form, and
:func:`reference_lp_text` is the LP writer the package's ``write_lp`` must
match byte for byte.  :func:`program_rows`, :func:`rows_tagged` and
:func:`var_refs` read a compiled program's arrays in tests.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple

import numpy as np

LE, EQ, GE = "<=", "=", ">="


class Row(NamedTuple):
    """One constraint row of a compiled program, sum(coef * var) sense rhs,
    with its family tag, owner and step (None where it has none)."""

    terms: tuple
    sense: str
    rhs: float
    tag: str
    owner: str
    step: int | None


def program_rows(prog, keep=None) -> list:
    """The rows of a compiled program, in order, each read from its CSR
    slice of ``prog.A`` and its entries of ``sense``, ``rhs``, ``tag``,
    ``owner`` and ``step``; only the rows whose tag ``keep`` accepts."""
    ptr, cols, coefs = prog.A.indptr.tolist(), prog.A.indices.tolist(), prog.A.data.tolist()
    return [Row(tuple(zip(cols[ptr[i]:ptr[i + 1]], coefs[ptr[i]:ptr[i + 1]])), sense, rhs,
                tag, owner, None if step < 0 else step)
            for i, (sense, rhs, tag, owner, step) in enumerate(zip(
                prog.sense.tolist(), prog.rhs.tolist(), prog.tag.tolist(),
                prog.owner.tolist(), prog.step.tolist()))
            if keep is None or keep(tag)]


def rows_tagged(prog, family) -> list:
    """The rows of one family (a :class:`~enopt.formulate.Family` or its
    tag), in order."""
    return program_rows(prog, lambda tag: tag == family)


def var_refs(prog) -> list:
    """Every variable's name, in column order."""
    return [prog.ref(j) for j in range(prog.num_vars)]


def as_le_rows(A, senses, b):
    """Rewrite rows of any sense as Gx <= h (equalities become two rows)."""
    G, h = [], []
    for i in range(len(b)):
        if senses[i] in (LE, EQ):
            G.append(A[i])
            h.append(b[i])
        if senses[i] in (GE, EQ):
            G.append(-A[i])
            h.append(-b[i])
    return np.array(G, dtype=float), np.array(h, dtype=float)


def vertex_enumeration(c, A, senses, b, lower, upper, feas_tol=1e-7):
    """min c'x over the rows plus box bounds; bounds must be finite so the
    region is compact (every nonempty compact polyhedron attains its optimum
    at an enumerated basic point).

    Returns (status, objective, x) with status "optimal" or "infeasible".
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    G, h = as_le_rows(np.asarray(A, dtype=float).reshape(-1, n), list(senses),
                      np.asarray(b, dtype=float))
    eye = np.eye(n)
    G = np.vstack([G, eye, -eye]) if G.size else np.vstack([eye, -eye])
    h = np.concatenate([h, np.asarray(upper, float), -np.asarray(lower, float)])
    if not np.all(np.isfinite(h)):
        raise ValueError("vertex enumeration needs finite bounds")

    combos = np.array(list(itertools.combinations(range(G.shape[0]), n)))
    M = G[combos]
    with np.errstate(all="ignore"):
        dets = np.linalg.det(M)
    good = np.abs(dets) > 1e-10
    best_obj, best_x = math.inf, None
    if good.any():
        V = np.linalg.solve(M[good], h[combos[good]][..., None])[..., 0]
        feasible = np.all(G @ V.T <= h[:, None] + feas_tol, axis=0)
        if feasible.any():
            objs = V[feasible] @ c
            k = int(np.argmin(objs))
            best_obj = float(objs[k])
            best_x = V[feasible][k]
    if best_x is None:
        return "infeasible", math.inf, None
    return "optimal", best_obj, best_x


def milp_enumeration(c, A, senses, b, lower, upper, int_idx, feas_tol=1e-7):
    """min c'x with x[int_idx] integral within their (finite) bounds: exhaust
    all fixings, solve the continuous remainder with vertex enumeration."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, c.size)
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    int_idx = list(int_idx)
    cont_idx = [j for j in range(c.size) if j not in int_idx]
    best_obj, best_x = math.inf, None
    ranges = [np.arange(math.ceil(lower[j]), math.floor(upper[j]) + 1, dtype=float)
              for j in int_idx]
    for fixed in itertools.product(*ranges):
        fixed = np.array(fixed)
        rhs = b - A[:, int_idx] @ fixed
        fixed_cost = float(c[int_idx] @ fixed)
        if not cont_idx:
            ok = True
            for i in range(len(rhs)):
                act = 0.0
                if senses[i] == LE and act > rhs[i] + feas_tol:
                    ok = False
                elif senses[i] == GE and act < rhs[i] - feas_tol:
                    ok = False
                elif senses[i] == EQ and abs(act - rhs[i]) > feas_tol:
                    ok = False
            if ok and fixed_cost < best_obj:
                best_obj = fixed_cost
                best_x = fixed.copy()
            continue
        status, obj, xc = vertex_enumeration(
            c[cont_idx], A[:, cont_idx], senses, rhs,
            lower[cont_idx], upper[cont_idx], feas_tol)
        if status == "optimal" and fixed_cost + obj < best_obj:
            best_obj = fixed_cost + obj
            full = np.zeros(c.size)
            full[int_idx] = fixed
            full[cont_idx] = xc
            best_x = full
    if best_x is None:
        return "infeasible", math.inf, None
    return "optimal", best_obj, best_x


def farkas_proves_infeasible(std, y, tol=1e-7):
    """Whether ``y`` certifies that the standard form ``A x = b``,
    ``lower <= x <= upper`` has no solution: with ``z = A'y``, ``y'b`` lies
    above ``max z'x`` over the box (so outside ``[min z'x, max z'x]``).
    Entries of ``z`` below 1e-9 of its largest are round-off and count as
    zero."""
    z = std.A.T @ np.asarray(y, dtype=float)
    z[np.abs(z) <= 1e-9 * max(1.0, float(np.max(np.abs(z), initial=0.0)))] = 0.0
    with np.errstate(invalid="ignore"):  # 0 * inf where z is zero
        z_max = np.where(z > 0, z * std.upper, np.where(z < 0, z * std.lower, 0.0)).sum()
    yb = float(y @ std.b)
    return bool(yb > z_max + tol * max(1.0, abs(yb)))


def _lp_name(text: str) -> str:
    return re.sub(r"\W", "_", text)


def _lp_terms(cols, coefs, names) -> str:
    terms = " ".join(f"- {-coef:.17g} {names[j]}" if coef < 0 else f"+ {coef:.17g} {names[j]}"
                     for j, coef in zip(cols, coefs))
    return terms.removeprefix("+ ") or "0"


def reference_lp_text(prog) -> str:
    """The LP text of a finalized program, formatted one term and one name
    at a time: every name through the ``\\W`` substitution, every number
    through its own ``.17g`` f-string."""
    names = [_lp_name(label) for label in prog.labels()]
    costed = np.flatnonzero(prog.objective)
    lines = ["Minimize", " obj: " + _lp_terms(costed.tolist(), prog.objective[costed].tolist(),
                                               names), "Subject To"]
    ptr, cols, coefs = (a.tolist() for a in (prog.A.indptr, prog.A.indices, prog.A.data))
    for i, (sense, rhs, tag, owner, step) in enumerate(zip(
            *(a.tolist() for a in (prog.sense, prog.rhs, prog.tag, prog.owner, prog.step)))):
        lo, hi = ptr[i], ptr[i + 1]
        if lo == hi:
            lines.append(f"\\ empty row {tag}_{i}: 0 {sense} {rhs:.17g}")
            continue
        name = _lp_name(f"{tag}_{owner}_{None if step < 0 else step}_{i}")
        lines.append(f" {name}: {_lp_terms(cols[lo:hi], coefs[lo:hi], names)} {sense} {rhs:.17g}")
    lines.append("Bounds")
    for i, name in enumerate(names):
        lo, hi = prog.lower[i], prog.upper[i]
        if lo == 0.0 and math.isinf(hi):
            continue
        if math.isinf(-lo) and math.isinf(hi):
            lines.append(f" {name} free")
        elif lo == hi:
            lines.append(f" {name} = {lo:.17g}")
        elif math.isinf(hi):
            lines.append(f" {lo:.17g} <= {name}")
        else:
            lines.append(f" {lo:.17g} <= {name} <= {hi:.17g}")
    integers = [names[i] for i in range(prog.num_vars) if prog.is_integer[i]]
    if integers:
        lines.append("General")
        lines.extend(" " + n for n in integers)
    lines.append("End")
    return "\n".join(lines) + "\n"
