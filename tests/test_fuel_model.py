"""Fuel model: rate values, saving ratio, plan fuel against quadrature."""

import random

import pytest

from platoonplan import FuelModel, VehiclePlan, per_distance, plan_fuel
from platoonplan.road_network import Route

from conftest import quadrature_fuel

V80 = 80.0 / 3.6
V70 = 70.0 / 3.6


def test_follower_saving_ratio_at_80kmh(model):
    """The default coefficients give the documented 15.9 % follower saving."""
    ratio = 1.0 - per_distance(model, V80, True) / per_distance(model, V80, False)
    assert abs(ratio - 0.159) < 5e-4


def test_identical_curves_give_zero_saving():
    m = FuelModel(ap=FuelModel.a0, bp=FuelModel.b0)
    for v in (m.v_min, m.v_default, m.v_max):
        assert per_distance(m, v, True) == per_distance(m, v, False)


def test_solo_rate_at_70kmh(model):
    # Direct evaluation of the affine curve.
    expected = 8.4159e-6 * V70 + 4.8021e-5
    assert per_distance(model, V70, False) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(2.1166e-4, rel=1e-4)


def test_out_of_range_speed_rejected(model):
    with pytest.raises(ValueError):
        per_distance(model, model.v_max * 1.01, False)
    with pytest.raises(ValueError):
        per_distance(model, model.v_min * 0.9, True)


def test_from_config_converts_kmh():
    m = FuelModel.from_config(
        {"a0": 1e-6, "b0": 1e-4, "ap": 5e-7, "bp": 9e-5,
         "v_min_kmh": 60, "v_max_kmh": 100, "v_default_kmh": 72}
    )
    assert m.v_min == pytest.approx(60 / 3.6)
    assert m.v_max == pytest.approx(100 / 3.6)
    assert m.v_default == pytest.approx(20.0)
    assert FuelModel.from_config({}) == FuelModel()


@pytest.mark.parametrize("block", [{"a0": True}, {"v_max_kmh": "95"}], ids=["bool", "string"])
def test_from_config_rejects_values_that_are_not_json_numbers(block):
    with pytest.raises(ValueError, match="must be a finite number"):
        FuelModel.from_config(block)


def test_invalid_models_rejected():
    with pytest.raises(ValueError):
        FuelModel(a0=-1e-9)
    with pytest.raises(ValueError):
        FuelModel(v_min=0.0)
    with pytest.raises(ValueError):
        # Follower curve above the solo curve at high speed.
        FuelModel(ap=2e-5, bp=4.8021e-5)


def _flat_plan(distance, speeds, flags, t_start=0.0):
    times = [t_start]
    total = sum(distance)
    for d, v in zip(distance, speeds):
        times.append(times[-1] + d / v)
    route = Route(edges=("e",), lengths=(total,), start_offset=0.0, dest_offset=total)
    return VehiclePlan(route=route, speeds=tuple(speeds), times=tuple(times), follower_flags=tuple(flags))


def test_plan_fuel_100km_solo(model):
    plan = _flat_plan([100_000.0], [V80], [0])
    expected = quadrature_fuel(model, plan)
    assert plan_fuel(model, plan) == pytest.approx(expected, rel=1e-9)
    assert plan_fuel(model, plan) == pytest.approx(model.solo_rate(V80) * 1e5, rel=1e-12)


def test_plan_fuel_zero_duration(model):
    route = Route(edges=("e",), lengths=(1.0,), start_offset=0.0, dest_offset=1.0)
    plan = VehiclePlan(route=route, speeds=(), times=(0.0,), follower_flags=())
    assert plan_fuel(model, plan) == 0.0


def test_plan_fuel_100km_follower_matches_ratio(model):
    solo = plan_fuel(model, _flat_plan([100_000.0], [V80], [0]))
    follower = plan_fuel(model, _flat_plan([100_000.0], [V80], [1]))
    assert follower == pytest.approx(model.follower_rate(V80) * 1e5, rel=1e-12)
    assert 1.0 - follower / solo == pytest.approx(0.159, abs=5e-4)


def test_plan_fuel_matches_quadrature_on_random_plans(model):
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 6)
        speeds = [rng.uniform(model.v_min, model.v_max) for _ in range(k)]
        dists = [rng.uniform(1e3, 5e4) for _ in range(k)]
        flags = [rng.randint(0, 1) for _ in range(k)]
        plan = _flat_plan(dists, speeds, flags, t_start=rng.uniform(0, 3600))
        assert plan_fuel(model, plan) == pytest.approx(quadrature_fuel(model, plan), rel=1e-9)


def test_plan_fuel_monotone_in_solo_speed(model):
    """Slowing any solo piece within bounds never costs fuel (affine increasing rate)."""
    rng = random.Random(21)
    for _ in range(30):
        speeds = [rng.uniform(model.v_min + 0.5, model.v_max) for _ in range(3)]
        dists = [rng.uniform(1e3, 2e4) for _ in range(3)]
        plan = _flat_plan(dists, speeds, [0, 1, 0])
        base = plan_fuel(model, plan)
        i = rng.choice([0, 2])
        slower = list(speeds)
        slower[i] = rng.uniform(model.v_min, speeds[i])
        cheaper = plan_fuel(model, _flat_plan(dists, slower, [0, 1, 0]))
        assert cheaper <= base + 1e-12


def test_fleet_fuel_is_additive(model):
    plans = [
        _flat_plan([5e4], [V80], [0]),
        _flat_plan([3e4, 2e4], [V70, V80], [0, 1]),
        _flat_plan([1e4], [model.v_max], [1]),
    ]
    total = sum(plan_fuel(model, p) for p in plans)
    assert total == pytest.approx(
        plan_fuel(model, plans[0]) + plan_fuel(model, plans[1]) + plan_fuel(model, plans[2]),
        rel=1e-15,
    )
