"""Scenario registry: the built-in name -> module table and its fallbacks."""

from repro.campaign import registry
from repro.campaign.registry import (
    BUILTIN_SCENARIOS,
    Param,
    all_scenarios,
    get_scenario,
    load_builtins,
    scenario,
)


def test_table_names_exactly_the_module_of_every_builtin():
    # Other test modules register scenarios of their own; the built-ins
    # are exactly those registered by a module of the package.
    load_builtins()
    registered = {name: sc.fn.__module__
                  for name, sc in all_scenarios().items()
                  if sc.fn.__module__.startswith("repro.")}
    assert registered == BUILTIN_SCENARIOS
    assert len(BUILTIN_SCENARIOS) == 24


def test_scenario_registered_outside_the_table_resolves(monkeypatch):
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

    @scenario("outside_the_table", params=[Param("x", int, 1)])
    def outside(x):
        return {"x": x}

    assert "outside_the_table" not in BUILTIN_SCENARIOS
    sc = get_scenario("outside_the_table")
    assert sc.fn is outside
    assert sc.run({"x": "3"}) == {"x": 3}
