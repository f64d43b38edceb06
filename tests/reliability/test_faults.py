"""Deterministic fault injection: every decision replays exactly."""

import pytest

from repro.obs import Registry
from repro.reliability import (
    FAULT_ACTIONS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    det_unit,
    parse_fault_spec,
)


class TestDetUnit:
    def test_range_and_determinism(self):
        values = [det_unit(seed, "scope", "site", i) for seed in (0, 1, 7) for i in range(50)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert det_unit(3, "a", "b", 0) == det_unit(3, "a", "b", 0)

    def test_sensitive_to_every_part(self):
        base = det_unit(0, "cell", "waf.phase1", 0)
        assert det_unit(1, "cell", "waf.phase1", 0) != base
        assert det_unit(0, "other", "waf.phase1", 0) != base
        assert det_unit(0, "cell", "waf.phase2", 0) != base
        assert det_unit(0, "cell", "waf.phase1", 1) != base

    def test_roughly_uniform(self):
        hits = sum(det_unit(0, "u", i) < 0.3 for i in range(1000))
        assert 200 < hits < 400


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="raise", rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="delay", delay=-1.0)

    def test_actions_closed_set(self):
        assert set(FAULT_ACTIONS) == {"raise", "delay", "kill"}

    def test_has_kill(self):
        assert FaultPlan(specs=(FaultSpec(site="*", action="kill"),)).has_kill
        assert not FaultPlan(specs=(FaultSpec(site="*", action="raise"),)).has_kill


class TestParseFaultSpec:
    def test_full_form(self):
        spec = parse_fault_spec(
            "site=greedy.phase2;action=kill;scope=*seed=1*;rate=0.5;"
            "at=0,2;delay=0.1;max_fires=3"
        )
        assert spec == FaultSpec(
            site="greedy.phase2", action="kill", scope="*seed=1*",
            rate=0.5, at=(0, 2), delay=0.1, max_fires=3,
        )

    def test_minimal_form(self):
        spec = parse_fault_spec("site=waf.*;action=raise")
        assert spec.site == "waf.*" and spec.action == "raise"
        assert spec.rate == 1.0 and spec.scope == "*"

    def test_scope_value_may_contain_equals(self):
        assert parse_fault_spec("site=x;action=raise;scope=*seed=3*").scope == "*seed=3*"

    @pytest.mark.parametrize(
        "text",
        [
            "", "action=raise", "site=x;action=raise;bogus=1", "site=x;action=raise;rate=no",
            "site=x;action=delay;delay=nan", "site=x;action=delay;delay=inf",
            "site=x;action=delay;delay=1e300", "site=x;action=delay;delay=-1",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_fault_spec(text)


def _trace(injector: FaultInjector, names: list[str]) -> list:
    """Drive the injector through a span-name sequence, collecting fires."""
    reg = Registry(enabled=True)
    reg.add_hook(injector)
    for name in names:
        try:
            with reg.time(name):
                pass
        except InjectedFault:
            pass
    return list(injector.fired)


class TestFaultInjector:
    NAMES = ["udg.grid.build", "waf.phase1", "waf.phase2", "waf.phase1"]

    def test_site_pattern_matching(self):
        plan = FaultPlan(specs=(FaultSpec(site="waf.*", action="raise"),))
        fired = _trace(plan.injector("cell"), self.NAMES)
        assert [f[0] for f in fired] == ["waf.phase1", "waf.phase2", "waf.phase1"]

    def test_scope_restricts_cells(self):
        plan = FaultPlan(specs=(FaultSpec(site="*", action="raise", scope="*seed=1*"),))
        assert _trace(plan.injector("n=10;seed=1"), self.NAMES)
        assert not _trace(plan.injector("n=10;seed=2"), self.NAMES)

    def test_at_selects_occurrences(self):
        plan = FaultPlan(specs=(FaultSpec(site="waf.phase1", action="raise", at=(1,)),))
        fired = _trace(plan.injector("c"), self.NAMES)
        assert fired == [("waf.phase1", 1, "raise")]

    def test_max_fires_caps_hits(self):
        plan = FaultPlan(specs=(FaultSpec(site="*", action="raise", max_fires=2),))
        assert len(_trace(plan.injector("c"), self.NAMES)) == 2

    def test_raise_action_raises(self):
        reg = Registry(enabled=True)
        plan = FaultPlan(specs=(FaultSpec(site="boom", action="raise"),))
        reg.add_hook(plan.injector("c"))
        with pytest.raises(InjectedFault):
            with reg.time("boom"):
                pass

    def test_rate_decisions_replay_exactly(self):
        plan = FaultPlan(seed=11, specs=(FaultSpec(site="*", action="raise", rate=0.4),))
        names = [f"site.{i % 3}" for i in range(60)]
        first = _trace(plan.injector("cell-A"), names)
        again = _trace(plan.injector("cell-A"), names)
        assert first == again
        assert 0 < len(first) < len(names)  # partial, not all-or-nothing

    def test_cells_fail_independently(self):
        plan = FaultPlan(seed=11, specs=(FaultSpec(site="*", action="raise", rate=0.4),))
        names = [f"site.{i}" for i in range(40)]
        assert _trace(plan.injector("cell-A"), names) != _trace(
            plan.injector("cell-B"), names
        )

    def test_seed_changes_decisions(self):
        names = [f"site.{i}" for i in range(40)]
        fired = [
            _trace(
                FaultPlan(
                    seed=seed, specs=(FaultSpec(site="*", action="raise", rate=0.5),)
                ).injector("c"),
                names,
            )
            for seed in (0, 1)
        ]
        assert fired[0] != fired[1]

    def test_fresh_injector_resets_occurrences(self):
        plan = FaultPlan(specs=(FaultSpec(site="waf.phase1", action="raise", at=(0,)),))
        assert _trace(plan.injector("c"), self.NAMES) == _trace(
            plan.injector("c"), self.NAMES
        )
