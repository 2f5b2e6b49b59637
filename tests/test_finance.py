import pytest

from enopt.finance import annual_share, annualize, capital_recovery_factor, output_side_cost
from enopt.model import AnnuityInput


@pytest.mark.parametrize("i", [0.0, 0.01, 0.05, 0.2, 1.0])
def test_single_period_recovers_principal_plus_interest_exactly(i):
    assert capital_recovery_factor(i, 1) == 1.0 + i


@pytest.mark.parametrize("n", [1, 2, 10, 40])
def test_zero_interest_limit_is_straight_line(n):
    assert capital_recovery_factor(0.0, n) == 1.0 / n


def test_reference_value_at_5_percent_20_years():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    i, n = mpmath.mpf("0.05"), 20
    exact = (1 + i) ** n * i / ((1 + i) ** n - 1)
    got = capital_recovery_factor(0.05, 20)
    assert abs(got - float(exact)) < 1e-12
    assert got == pytest.approx(0.0802, abs=5e-5)


def test_monotone_in_interest_and_lifetime():
    grid_i = [0.0, 0.005, 0.01, 0.03, 0.07, 0.15, 0.5]
    grid_n = [1, 2, 3, 5, 10, 25, 60]
    for n in grid_n:
        values = [capital_recovery_factor(i, n) for i in grid_i]
        assert all(a < b for a, b in zip(values, values[1:]))
    for i in grid_i:
        values = [capital_recovery_factor(i, n) for n in grid_n]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_long_lifetimes_approach_pure_interest():
    for i in (0.02, 0.05, 0.1):
        assert abs(capital_recovery_factor(i, 10_000) - i) < 1e-6


@pytest.mark.parametrize("bad", [(0.05, 0), (-0.01, 10)])
def test_domain_errors(bad):
    with pytest.raises(ValueError):
        capital_recovery_factor(*bad)


def test_annualize_products():
    assert annualize(AnnuityInput(1000.0, 0.0, 1)) == 1000.0
    assert annualize(AnnuityInput(1000.0, 0.0, 4)) == 250.0
    expected = 500_000.0 * capital_recovery_factor(0.05, 20)
    assert annualize(AnnuityInput(500_000.0, 0.05, 20)) == expected


def test_output_side_cost():
    assert output_side_cost(123.0, 1.0) == 123.0
    assert output_side_cost(1000.0, 0.7) == pytest.approx(1428.5714285714287)
    with pytest.raises(ValueError):
        output_side_cost(1.0, 0.0)


def test_annual_share_scales_both_ways():
    assert annual_share(8760.0) == 1.0
    assert annual_share(168.0) == pytest.approx(168.0 / 8760.0)
    assert annual_share(2 * 8760.0) == 2.0
