"""The design spaces the sweep workloads explore.

``sweep`` is an exact InfoPad job of 4,788 points whose axis origins
are shifted by the workload seed; ``sweep_1m`` is the fixed
1,000,809-point surrogate job of ``benchmarks/bench_surrogate.py`` (the
seed picks the surrogate's training sample, so the exact reference
front in ``reference.json`` stays valid for every seed).
"""

import random

from repro.explore import Axis, DerivedObjective, ParameterSpace, parse_axis_spec

BITS_TARGET = "custom_hardware.luminance_chip.read_bank.bits"
BITS_VALUES = tuple(float(b) for b in range(8, 17))

#: the alpha-power access-time objective of bench_surrogate.py
ACCESS_TIME = DerivedObjective(
    "access_time", "2e-8 * (VDD2 / 1.5) / ((VDD2 - 0.7) ^ 1.3)"
)

SWEEP_1M_AXES = ("VDD2=1.1:3.3:0.002", "VDD1=0.9:1.8:0.009")
SURROGATE = {
    "train_frac": 0.01,
    "verify_top": 64,
    "max_error": 0.10,
}


def _linear(name: str, start: float, step: float, count: int) -> Axis:
    return Axis(name, tuple(round(start + i * step, 6) for i in range(count)))


def sweep_space(seed: int) -> ParameterSpace:
    """VDD2 x VDD1 x read-bank bits, origins shifted by up to one step."""
    rng = random.Random(seed)
    vdd2 = 1.1 + 0.002 * rng.randrange(20)
    vdd1 = 0.9 + 0.0025 * rng.randrange(20)
    return ParameterSpace([
        _linear("VDD2", vdd2, 0.08, 28),
        _linear("VDD1", vdd1, 0.05, 19),
        Axis("bits", BITS_VALUES, target=BITS_TARGET),
    ])


def sweep_1m_space() -> ParameterSpace:
    return ParameterSpace(
        [
            parse_axis_spec(SWEEP_1M_AXES[0]),
            parse_axis_spec(SWEEP_1M_AXES[1]),
            Axis("bits", BITS_VALUES, target=BITS_TARGET),
        ],
        point_cap=2_000_000,
        lazy=True,
    )


def surrogate_config(seed: int) -> dict:
    return dict(SURROGATE, train_seed=seed)
