import math
import warnings

import pytest

from crossinglab import classify_regimes, mu, mu_tilde_1
from crossinglab.errors import CrossingLabError, RegimeViolation
from crossinglab.params import RegimeSplit
from crossinglab.harness.sweep import DEMO_POTENTIAL, ORACLES, SweepConfig, run_sweep
from crossinglab.potential import find_crossings, model_from_config
from crossinglab.potential.turning import turning_points
from crossinglab.predictor import predict_mixed
from crossinglab.transfer import predicted_scattering

DEMO = model_from_config(DEMO_POTENTIAL)
DEMO_CATALOG = find_crossings(DEMO)


@pytest.mark.parametrize("h, eps", [(1e-4, 0.05), (1e-4, 0.08), (1e-6, 3e-3)])
def test_order_one_adiabatic_side_gates_on_plain_mu(h, eps):
    """Demo orders (1, 3): mu~_1 >= 10 but mu_1 < 10 is the untreated band."""
    assert mu_tilde_1(eps, h) >= 10.0 > mu(1, eps, h)
    with pytest.raises(RegimeViolation, match="crossing 0 of order 1"):
        classify_regimes(DEMO_CATALOG.orders, eps, h)


def test_order_one_above_h_one_is_refused_typed():
    """mu~_1 needs log(1/h) >= 0: at h = 2 the rule refuses with RegimeViolation,
    and a demo sweep row records the chain oracle as failed."""
    with pytest.raises(RegimeViolation, match="h <= 1"):
        classify_regimes((1, 3), 0.1, 2.0)
    rows = run_sweep(SweepConfig(potential=DEMO_POTENTIAL, oracles=("chain",),
                                 grid={"type": "list", "rows": [{"eps": 0.1, "h": 2.0}]}))
    assert rows[0]["status"] == "failed"
    assert rows[0]["error"].startswith("chain: RegimeViolation")


def _regime_refused(oracle, model, catalog, eps, h) -> bool:
    try:
        ORACLES[oracle](model, catalog, eps, h, 1e-9)
    except RegimeViolation:
        return True
    except CrossingLabError:
        pass
    return False


@pytest.mark.parametrize("model, catalog", [
    (DEMO, DEMO_CATALOG),
    (model_from_config({"family": "scaled_tanh_product", "params": {"scale": 1.0, "factors": [
        {"power": 3, "slope": 1.0, "center": 2.0},
        {"power": 3, "slope": 1.0, "center": -2.0}]}}), None),
], ids=["demo", "tanh_pair"])
def test_rule_and_closed_forms_agree(model, catalog):
    """classify_regimes accepts a row exactly when the chain and mixed
    oracles raise no RegimeViolation, on a mu ladder across the band."""
    catalog = catalog or find_crossings(model)
    m = catalog.orders[0]
    for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for mu_val in (0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 5.0, 8.0, 10.0, 15.0, 30.0):
            eps = mu_val * h ** (m / (m + 1.0))
            try:
                classify_regimes(catalog.orders, eps, h)
                accepted = True
            except RegimeViolation:
                accepted = False
            for oracle in ("chain", "mixed"):
                refused = _regime_refused(oracle, model, catalog, eps, h)
                assert refused != accepted, (oracle, h, mu_val)


def test_mixed_coefficients_without_underflow_warnings():
    """Orders (1, 5) at h = 1e-8, both adiabatic: at the order-1 crossing
    exp(-a mu_1^2) underflows to zero, so q has no entry and no NaN is formed."""
    model = model_from_config({"family": "scaled_tanh_product", "params": {
        "scale": 1.0, "factors": [{"power": 1, "slope": 6.0, "center": 2.0},
                                  {"power": 5, "slope": 1.0, "center": -2.0}]}})
    catalog = find_crossings(model)
    eps, h = 1e-2, 1e-8
    split = classify_regimes(catalog.orders, eps, h)
    assert split.assignment == ("A", "A")
    tps = {k: turning_points(model, catalog, k, eps) for k in range(catalog.n)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = predict_mixed(model, catalog, eps, h, split, turning_sets=tps)
    assert pred.coefficients["q"] == {}
    assert math.isfinite(pred.eps1) and math.isfinite(pred.eps2)


def test_split_of_other_orders_is_refused():
    """A split with the rule's assignment but other orders is no split of
    this catalog: the tanh pair (3, 3) at h = 1e-3, mu_3 = 10.5 is all
    adiabatic, and a split built from orders (2, 3) has other odd sharp
    crossings, hence other flip flags and parity count."""
    pair = model_from_config({"family": "scaled_tanh_product", "params": {
        "scale": 1.0, "factors": [{"power": 3, "slope": 1.0, "center": 2.0},
                                  {"power": 3, "slope": 1.0, "center": -2.0}]}})
    catalog = find_crossings(pair)
    h = 1e-3
    eps = 10.5 * h**0.75
    tps = {k: turning_points(pair, catalog, k, eps) for k in range(catalog.n)}
    rule = classify_regimes(catalog.orders, eps, h)
    other = RegimeSplit.build([2, 3], rule.assignment)
    assert other.assignment == rule.assignment == ("A", "A")
    assert other.sharp_odd != rule.sharp_odd
    assert predict_mixed(pair, catalog, eps, h, rule, turning_sets=tps).p_pred < 1e-20
    with pytest.raises(RegimeViolation, match=r"orders \(2, 3\)"):
        predict_mixed(pair, catalog, eps, h, other, turning_sets=tps)
    with pytest.raises(RegimeViolation, match=r"orders \(2, 3\)"):
        predicted_scattering(pair, eps, h, other, catalog=catalog)


@pytest.mark.parametrize("orders, assignment, odd", [
    ((3, 3), ("N", "N"), False), ((3, 3), ("A", "N"), True), ((3, 3), ("A", "A"), False),
    ((1, 3), ("N", "N"), False), ((1, 2), ("N", "N"), True), ((2, 3), ("N", "A"), False)])
def test_parity_odd(orders, assignment, odd):
    """sigma_n plus the count of odd adiabatic orders, mod 2."""
    assert RegimeSplit.build(orders, assignment).parity_odd is odd
