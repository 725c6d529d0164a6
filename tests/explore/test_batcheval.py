"""BatchEvaluator: bit-identical to the estimator, dirty-cone cached,
restorable."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.design import Design
from repro.core.estimator import (
    evaluate_area,
    evaluate_power,
    evaluate_timing,
    scope_overrides,
)
from repro.core.expressions import compile_expression as E
from repro.core.model import (
    CallablePowerModel,
    CapacitiveTerm,
    ExpressionAreaModel,
    ExpressionPowerModel,
    ModelSet,
    TemplatePowerModel,
)
from repro.core.parameters import Parameter
from repro.designs.infopad import build_infopad
from repro.errors import ExploreError, PowerPlayError
from repro.explore import BatchEvaluator, resolve_target

ADDER = TemplatePowerModel(
    "adder",
    capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
    parameters=(Parameter("bitwidth", 16),),
)

RAM = TemplatePowerModel(
    "ram",
    capacitive=[CapacitiveTerm("cells", E("words * bits * 1.2f"))],
    parameters=(Parameter("words", 256), Parameter("bits", 16)),
)


def make_design():
    design = Design("d")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 2e6)
    design.add("alu", ADDER, params={"bitwidth": 16})
    design.add("mem", RAM, params={"words": 512})
    return design


class TestEquivalence:
    def test_bit_identical_to_estimator(self):
        design = make_design()
        evaluator = BatchEvaluator(design)
        for vdd in (1.1, 1.5, 2.0, 3.3):
            for bits in (8.0, 16.0, 32.0):
                overrides = {"VDD": vdd, "bitwidth": bits}
                batch = evaluator.evaluate(overrides)["power"]
                with scope_overrides(design.scope, overrides):
                    serial = evaluate_power(design).power
                assert batch == serial  # exact: not approx

    def test_memo_hits_accumulate(self):
        design = make_design()
        evaluator = BatchEvaluator(design)
        # only the alu reads bitwidth: sweeping it must leave the mem
        # row's memo valid, so hits grow past the first point
        for bits in (8.0, 12.0, 16.0, 24.0):
            evaluator.evaluate({"bitwidth": bits})
        stats = evaluator.stats()
        assert stats["hits"] >= 3
        assert stats["hits"] + stats["misses"] >= 8

    def test_infopad_dotted_target(self):
        design = build_infopad()
        evaluator = BatchEvaluator(design)
        target = "custom_hardware.luminance_chip.read_bank.bits"
        low = evaluator.evaluate({target: 8.0})["power"]
        high = evaluator.evaluate({target: 16.0})["power"]
        assert low < high

    def test_multiple_objectives(self):
        design = build_infopad()
        evaluator = BatchEvaluator(design, ("power", "area", "delay"))
        result = evaluator.evaluate({"VDD2": 1.5})
        assert set(result) == {"power", "area", "delay"}
        assert result["power"] > 0


class TestStateDiscipline:
    def test_scope_restored_after_evaluate(self):
        design = make_design()
        evaluator = BatchEvaluator(design)
        evaluator.evaluate({"VDD": 9.9, "bitwidth": 64.0})
        assert design.scope["VDD"] == 1.5
        assert design.row("alu").scope["bitwidth"] == 16

    def test_new_global_name_removed_again(self):
        design = make_design()
        evaluator = BatchEvaluator(design)
        evaluator.evaluate({"brand_new": 1.0})
        assert "brand_new" not in design.scope.local_names()

    def test_unknown_objective_rejected(self):
        with pytest.raises(ExploreError, match="unknown objective"):
            BatchEvaluator(make_design(), ("power", "speed"))

    def test_unreplayable_model_still_correct(self):
        # a model that iterates its env cannot be memoized; it must be
        # re-evaluated every point, never served a stale value
        def snooping(env):
            seen = dict(env)  # iteration marks the row unstable
            return seen["VDD"] * 1e-3

        design = Design("d")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        design.add("spy", CallablePowerModel("spy", snooping))
        evaluator = BatchEvaluator(design)
        for vdd in (1.0, 2.0, 3.0, 2.0):
            got = evaluator.evaluate({"VDD": vdd})["power"]
            assert got == vdd * 1e-3


class TestResolveTarget:
    def test_plain_name_is_global(self):
        design = make_design()
        scope, name = resolve_target(design, "VDD")
        assert scope is design.scope and name == "VDD"

    def test_dotted_path_reaches_row_scope(self):
        design = make_design()
        scope, name = resolve_target(design, "alu.bitwidth")
        assert scope is design.row("alu").scope and name == "bitwidth"

    def test_missing_row_rejected(self):
        with pytest.raises(ExploreError, match="names no row"):
            resolve_target(make_design(), "nope.bitwidth")

    def test_missing_parameter_rejected(self):
        with pytest.raises(ExploreError):
            resolve_target(make_design(), "alu.nope")


# -- the oracle: the estimator on a fresh design --------------------------

OBJECTIVES = ("power", "area", "delay")
_PASSES = {
    "power": lambda design: evaluate_power(design).power,
    "area": lambda design: evaluate_area(design).area,
    "delay": lambda design: evaluate_timing(design).delay,
}


def oracle(build, overrides, objectives=OBJECTIVES):
    """Objective values of ``build()`` with ``overrides`` written where
    :func:`resolve_target` points, evaluated by the estimator."""
    design = build()
    for target, value in overrides.items():
        scope, name = resolve_target(design, target)
        scope.set(name, float(value))
    return {objective: _PASSES[objective](design) for objective in objectives}


def assert_sequence_exact(build, points, objectives=("power",)):
    evaluator = BatchEvaluator(build(), objectives)
    for point in points:
        assert evaluator.evaluate(point) == oracle(build, point, objectives)
    return evaluator


# InfoPad's three sweep targets, with the values the sweeps step through
BITS = "custom_hardware.luminance_chip.read_bank.bits"
INFOPAD_AXES = {
    "VDD2": [round(1.1 + 0.08 * i, 4) for i in range(28)],
    "VDD1": [round(0.9 + 0.05 * i, 4) for i in range(19)],
    BITS: [float(b) for b in range(8, 17)],
}

_INFOPAD_ORACLE = {}


def infopad_oracle(point):
    key = tuple(sorted(point.items()))
    if key not in _INFOPAD_ORACLE:
        _INFOPAD_ORACLE[key] = oracle(build_infopad, point)
    return _INFOPAD_ORACLE[key]


class TestDifferential:
    """Random override sequences against the estimator, exact ``==``."""

    @settings(max_examples=50, deadline=None)
    @given(
        grid=st.tuples(*(
            st.lists(st.sampled_from(values), min_size=1, max_size=3,
                     unique=True)
            for values in INFOPAD_AXES.values()
        )),
        seed=st.integers(0, 2**16),
    )
    def test_grid_row_major_and_shuffled(self, grid, seed):
        targets = list(INFOPAD_AXES)
        points = [
            dict(zip(targets, (a, b, c)))
            for a in grid[0] for b in grid[1] for c in grid[2]
        ]
        shuffled = list(points)
        random.Random(seed).shuffle(shuffled)
        for order in (points, shuffled):
            evaluator = BatchEvaluator(build_infopad(), OBJECTIVES)
            for point in order:
                assert evaluator.evaluate(point) == infopad_oracle(point)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.dictionaries(
            st.sampled_from(list(INFOPAD_AXES)),
            st.integers(0, 8),
            min_size=1,
        ),
        min_size=1, max_size=10,
    ))
    def test_random_override_sequences(self, steps):
        # key sets vary between points as well as values
        evaluator = BatchEvaluator(build_infopad(), OBJECTIVES)
        for step in steps:
            point = {
                target: INFOPAD_AXES[target][position]
                for target, position in step.items()
            }
            assert evaluator.evaluate(point) == infopad_oracle(point)


class TestDirtyCone:
    def test_clean_rows_are_reused(self):
        # the alu alone reads bitwidth: a bitwidth step recomputes one
        # of the two rows
        evaluator = BatchEvaluator(make_design())
        evaluator.evaluate({"bitwidth": 8.0})
        assert evaluator.stats() == {"hits": 0, "misses": 2}
        evaluator.evaluate({"bitwidth": 12.0})
        assert evaluator.stats() == {"hits": 1, "misses": 3}
        evaluator.evaluate({"bitwidth": 12.0})
        assert evaluator.stats() == {"hits": 3, "misses": 3}

    def test_read_set_rerecorded_on_every_recompute(self):
        # which of a/b the model reads depends on mode; deps recorded
        # only on the first evaluation (mode, a) would serve b = 3 and
        # b = 4 the value computed at b = 2
        def build():
            design = Design("d")
            design.scope.update({"mode": 1.0, "a": 1.0, "b": 2.0})
            design.add("pick", ExpressionPowerModel(
                "pick", "mode > 0.5 ? a * 1e-3 : b * 1e-3"))
            return design

        points = [
            {"mode": 1.0, "a": 1.0, "b": 2.0},
            {"mode": 0.0, "a": 1.0, "b": 2.0},
            {"mode": 0.0, "a": 1.0, "b": 3.0},
            {"mode": 0.0, "a": 1.0, "b": 4.0},
            {"mode": 1.0, "a": 5.0, "b": 4.0},
        ]
        assert_sequence_exact(build, points)

    def test_deps_dropped_when_key_set_changes(self):
        # the dotted target writes a float over luminance's VDD = "VDD2"
        # formula, so the rows' deps lack VDD2; later VDD2-only points
        # must not reuse them
        luminance_vdd = "custom_hardware.luminance_chip.VDD"
        points = [
            {luminance_vdd: 1.2},
            {"VDD2": 1.5},
            {"VDD2": 2.0},
            {luminance_vdd: 1.2, "VDD2": 2.5},
            {"VDD2": 2.5},
        ]
        assert_sequence_exact(build_infopad, points, OBJECTIVES)

    def test_point_after_a_failure_recomputes_everything(self):
        def build():
            design = Design("d")
            design.scope.update({"x": 1.0, "y": 1.0})
            design.add("r1", ExpressionPowerModel("r1", "x * 1e-3"))
            design.add("r2", ExpressionPowerModel("r2", "sqrt(y) * 1e-3"))
            design.add("r3", ExpressionPowerModel("r3", "x * 2e-3"))
            return design

        evaluator = BatchEvaluator(build())
        first = {"x": 1.0, "y": 1.0}
        assert evaluator.evaluate(first) == oracle(build, first, ("power",))
        with pytest.raises(PowerPlayError):
            evaluator.evaluate({"x": 2.0, "y": -1.0})
        last = {"x": 2.0, "y": 1.0}
        assert evaluator.evaluate(last) == oracle(build, last, ("power",))

    def test_env_iterating_row_recomputed_every_point(self):
        def snooping(env):
            return sum(env[name] for name in env if name.startswith("w_"))

        def build():
            design = Design("d")
            design.scope.update({"w_a": 1e-3, "w_b": 2e-3, "z": 1.0})
            design.add("spy", CallablePowerModel("spy", snooping))
            design.add("plain", ExpressionPowerModel("plain", "z * 1e-3"))
            return design

        points = [
            {"w_a": a, "z": z}
            for a in (1e-3, 3e-3, 1e-3) for z in (1.0, 2.0)
        ]
        evaluator = assert_sequence_exact(build, points)
        # spy: every point; plain: the first and each z change
        assert evaluator.misses == len(points) + len(points)

    def test_new_global_name_probed_with_in(self):
        def probing(env):
            return (env["extra"] if "extra" in env else 1.0) * 1e-3

        def build():
            design = Design("d")
            design.scope.set("z", 1.0)
            design.add("probe", CallablePowerModel("probe", probing))
            design.add("plain", ExpressionPowerModel("plain", "z * 1e-3"))
            return design

        points = [
            {"z": 1.0},
            {"z": 1.0, "extra": 2.0},
            {"z": 1.0, "extra": 3.0},
            {"z": 2.0, "extra": 3.0},
            {"z": 2.0},
        ]
        assert_sequence_exact(build, points)

    def test_parameter_shadowing_a_constant(self):
        # k is Boltzmann's constant unless a scope defines it; a formula
        # parameter reading k must depend on the scope's k
        def build():
            design = Design("d")
            design.scope.set("k", 2.0)
            design.add("r", ExpressionPowerModel("r", "c"),
                       params={"c": "k * 1e-3"})
            return design

        assert_sequence_exact(build, [{"k": 2.0}, {"k": 3.0}, {"k": 4.0}])

    def test_power_feed_consumer_follows_its_feeds(self):
        # InfoPad's voltage_converters row feeds on the other six rows'
        # power; a VDD1 step changes them without touching the
        # converter's own deps
        assert build_infopad().row("voltage_converters").power_feeds
        points = [{"VDD1": v} for v in (1.0, 1.2, 1.2, 1.4)]
        assert_sequence_exact(build_infopad, points, OBJECTIVES)

    def test_area_feed_consumer_follows_its_feed(self):
        def build():
            design = Design("d")
            design.scope.update({"n": 4.0, "z": 1.0})
            design.add("block", ModelSet(
                power=ExpressionPowerModel("block", "z * 1e-3"),
                area=ExpressionAreaModel("block_area", "n * 1e-6"),
            ))
            design.add("wires", ExpressionPowerModel(
                "wires", "active_area * 10"), area_feeds=("block",))
            return design

        points = [{"n": 4.0, "z": 1.0}, {"n": 8.0, "z": 1.0},
                  {"n": 8.0, "z": 2.0}, {"n": 4.0, "z": 2.0}]
        assert_sequence_exact(build, points, OBJECTIVES)
