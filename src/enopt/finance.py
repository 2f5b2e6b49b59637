"""Annualisation and cost-side conversion arithmetic.

Capacity costs enter the objective as EUR/MW per year; when the simulated
horizon is shorter (or longer) than a year they are scaled by
``annual_share``.
"""

from __future__ import annotations

from .model import AnnuityInput, HOURS_PER_YEAR

__all__ = ["capital_recovery_factor", "annualize", "output_side_cost", "annual_share"]


def capital_recovery_factor(interest_rate: float, lifetime: int) -> float:
    """Annuity factor converting a lump investment into equal per-period
    payments: ((1+i)^n * i) / ((1+i)^n - 1).

    At zero interest the formula is 0/0; the analytic limit 1/n applies.
    A lifetime of one period collapses to 1+i exactly.
    """
    if lifetime < 1:
        raise ValueError(f"lifetime must be >= 1, got {lifetime}")
    if interest_rate < 0:
        raise ValueError(f"interest rate must be >= 0, got {interest_rate}")
    if interest_rate == 0.0:
        return 1.0 / lifetime
    if lifetime == 1:
        return 1.0 + interest_rate
    # reciprocal form stays finite for very long lifetimes, where the direct
    # (1+i)^n numerator overflows
    discount = (1.0 + interest_rate) ** -lifetime
    return interest_rate / (1.0 - discount)


def annualize(inp: AnnuityInput) -> float:
    """Per-period payment equivalent to the lump investment, EUR/MW/a."""
    return inp.total_investment * capital_recovery_factor(inp.interest_rate, inp.lifetime)


def output_side_cost(input_side_cost: float, efficiency: float) -> float:
    """Convert a specific cost quoted per MW of input to per MW of output:
    the input-side cost divided by the efficiency.

    Typical for electrolysis, where costs are quoted per kW of electricity
    but the model accounts capacity on the product side.
    """
    if not efficiency > 0:
        raise ValueError(f"efficiency must be > 0, got {efficiency}")
    return input_side_cost / efficiency


def annual_share(hours: float) -> float:
    """Fraction of a year covered by ``hours`` of scheduled time.

    Annualised costs are multiplied by this, so a one-week run carries one
    week of capacity cost and a two-year run carries two years.
    """
    return hours / HOURS_PER_YEAR
