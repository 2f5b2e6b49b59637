"""Brute-force oracles the solver is checked against.

Both are independent of the package's solver: LPs are solved by enumerating
basic points (intersections of n constraint hyperplanes) over a compact
polytope, MILPs by enumerating all binary fixings and handing the remaining
continuous problem to the vertex oracle.  A third check tests an
infeasibility certificate directly against the standard form, and
:func:`reference_lp_text` is the LP writer the package's ``write_lp`` must
match byte for byte.  :func:`rows_tagged` and :func:`var_refs` are views of
a compiled program for reading it in tests.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

LE, EQ, GE = "<=", "=", ">="


def rows_tagged(prog, family) -> list:
    """The rows of one family (a :class:`~enopt.formulate.Family` or its
    tag), in order: a filter over ``prog.rows``."""
    return [row for row in prog.rows if row.tag == family]


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


def milp_enumeration(c, A, senses, b, lower, upper, binary_idx, feas_tol=1e-7):
    """min c'x with x[binary_idx] in {0,1}: exhaust all fixings, solve the
    continuous remainder with vertex enumeration."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, c.size)
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    binary_idx = list(binary_idx)
    cont_idx = [j for j in range(c.size) if j not in binary_idx]
    best_obj, best_x = math.inf, None
    for bits in itertools.product((0.0, 1.0), repeat=len(binary_idx)):
        bits = np.array(bits)
        if np.any(bits < lower[binary_idx] - 1e-12) or np.any(
                bits > upper[binary_idx] + 1e-12):
            continue
        rhs = b - A[:, binary_idx] @ bits
        fixed_cost = float(c[binary_idx] @ bits)
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
                best_x = bits.copy()
            continue
        status, obj, xc = vertex_enumeration(
            c[cont_idx], A[:, cont_idx], senses, rhs,
            lower[cont_idx], upper[cont_idx], feas_tol)
        if status == "optimal" and fixed_cost + obj < best_obj:
            best_obj = fixed_cost + obj
            full = np.zeros(c.size)
            full[binary_idx] = bits
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
