"""Property tests for the cycle-attribution invariant.

Acceptance criterion of the profiler: for every zoo workload under every
protection mode, the attributed categories partition the simulated cycle
count **exactly** — per layer, bit-exact (`float(sum(parts)) == cycles`);
per run, to within sequential-float-summation noise (`rel_tol=1e-9`).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.telemetry.profiler import split_exact
from repro.soc import SoC, SoCConfig
from repro.workloads import zoo

ZERO = Fraction(0)

#: Small input sizes keep the full matrix fast while still exercising
#: multi-iteration tiling, flush boundaries and IOTLB pressure.
WORKLOADS = sorted(zoo.MODEL_BUILDERS)
PROTECTIONS = ("none", "trustzone", "snpu")


def _build(model_name):
    if model_name in ("bert", "gpt"):
        # The zoo "tiny" profile: seq_len=64, two transformer layers.
        return zoo.MODEL_BUILDERS[model_name](64, 2)
    return zoo.MODEL_BUILDERS[model_name](56)


def _run_profiled(model_name, protection, detailed, secure=False):
    model = _build(model_name)
    with telemetry.scoped(trace=False) as scope:
        soc = SoC(SoCConfig(protection=protection))
        handle = soc.submit(model, secure=secure)
        try:
            result = soc.run(handle, detailed=detailed)
        finally:
            soc.release(handle)
        run = scope.profiler.runs[-1]
    return result, run


@pytest.mark.parametrize("protection", PROTECTIONS)
@pytest.mark.parametrize("model_name", WORKLOADS)
def test_attribution_exact_analytic(model_name, protection):
    result, run = _run_profiled(model_name, protection, detailed=False)
    for lay, res in zip(run.layers, result.layers):
        assert sum(lay.parts.values(), ZERO) == lay.total
        assert float(lay.total) == res.cycles  # bit-exact per layer
    assert math.isclose(float(run.total()), result.cycles, rel_tol=1e-9)


@pytest.mark.parametrize("protection", PROTECTIONS)
@pytest.mark.parametrize("model_name", ["resnet", "mobilenet", "alexnet"])
def test_attribution_exact_detailed(model_name, protection):
    result, run = _run_profiled(
        model_name, protection, detailed=True,
        secure=(protection != "none"),
    )
    assert run.mode == "detailed"
    for lay, res in zip(run.layers, result.layers):
        assert sum(lay.parts.values(), ZERO) == lay.total
        assert float(lay.total) == res.cycles
    assert math.isclose(float(run.total()), result.cycles, rel_tol=1e-9)


@given(
    total=st.floats(min_value=0.0, max_value=1e12,
                    allow_nan=False, allow_infinity=False),
    claims=st.lists(
        st.tuples(
            st.sampled_from(["pe.compute", "dma.issue", "dma.stall.iotlb",
                             "flush.scrub", "guarder.check"]),
            st.floats(min_value=-1e6, max_value=1e12,
                      allow_nan=False, allow_infinity=False),
        ),
        max_size=12,
    ),
)
@settings(max_examples=300, deadline=None)
def test_split_exact_always_partitions(total, claims):
    out = split_exact(total, claims, residual="dma.transfer")
    assert sum(out.values(), ZERO) == Fraction(total)
    assert all(v > ZERO for v in out.values())
    # No part can exceed the enclosing interval.
    assert all(v <= Fraction(total) for v in out.values())
