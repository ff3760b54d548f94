"""Unit tests for cycle-attribution reports and overhead decomposition."""

import json
import math
from fractions import Fraction

import pytest

from repro.analysis.diagnose import diagnose_profiles
from repro.analysis.profile import from_dict, profile_host, profile_model
from repro.workloads import zoo

ZERO = Fraction(0)


@pytest.fixture(scope="module")
def model():
    return zoo.resnet18(input_size=56)


@pytest.fixture(scope="module")
def profiles(model):
    return {
        prot: profile_model(model, prot, detailed=True)
        for prot in ("none", "trustzone", "snpu")
    }


class TestModelProfile:
    def test_categories_partition_total_exactly(self, profiles):
        for profile in profiles.values():
            assert sum(profile.categories.values(), ZERO) == profile.total

    def test_total_matches_run_cycles(self, profiles):
        for profile in profiles.values():
            assert math.isclose(
                float(profile.total), profile.run_cycles, rel_tol=1e-9
            )

    def test_layer_reports_carry_bound_and_overlap(self, profiles):
        profile = profiles["none"]
        assert profile.layers
        for layer in profile.layers:
            assert layer.bound in ("compute", "memory", "flush")
            if layer.overlap_efficiency is not None:
                assert 0.0 <= layer.overlap_efficiency <= 1.0

    def test_share_sums_to_one(self, profiles):
        profile = profiles["snpu"]
        total_share = sum(profile.share(c) for c in profile.categories)
        assert total_share == pytest.approx(1.0)

    def test_json_roundtrip_preserves_exact_values(self, profiles):
        profile = profiles["trustzone"]
        restored = from_dict(json.loads(profile.to_json()))
        assert restored.total == profile.total
        assert restored.categories == profile.categories
        assert len(restored.layers) == len(profile.layers)
        assert restored.layers[0].parts == profile.layers[0].parts

    def test_folded_stacks_cover_total(self, profiles):
        profile = profiles["snpu"]
        folded = profile.to_folded()
        total = 0
        for line in folded.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack.startswith(profile.task + ";")
            assert ";" in stack
            total += int(count)
        assert total == pytest.approx(float(profile.total), abs=len(
            profile.categories
        ))

    def test_markdown_report_has_decomposition_table(self, profiles):
        report = profiles["trustzone"].to_markdown()
        assert "| category | cycles | share |" in report
        assert "dma.stall.iotlb" in report
        assert "Hottest layers" in report


class TestDiagnosis:
    """``diagnose MODEL --a none --b PROT``: the per-mechanism overhead
    decomposition behind Fig. 13."""

    def test_parts_sum_exactly_to_end_to_end_overhead(self, profiles):
        """Fig. 13 corroboration: the per-mechanism deltas *are* the
        end-to-end overhead, decomposed — bit-for-bit."""
        for other in ("trustzone", "snpu"):
            diagnosis = diagnose_profiles(profiles["none"], profiles[other])
            assert sum(
                (p.delta for p in diagnosis.parts), ZERO
            ) == diagnosis.total_delta
            assert (
                diagnosis.total_delta
                == profiles[other].total - profiles["none"].total
            )

    def test_snpu_overhead_is_negligible(self, profiles):
        """The paper's headline claim: sNPU protection costs <1%."""
        diagnosis = diagnose_profiles(profiles["none"], profiles["snpu"])
        assert abs(diagnosis.total_delta / diagnosis.total_a) < 0.01

    def test_trustzone_overhead_dominated_by_iotlb_stalls(self, profiles):
        """Fig. 13 shape: the TrustZone-style baseline pays real overhead,
        and exposed IOMMU page-walk stalls are the dominant mechanism."""
        diagnosis = diagnose_profiles(
            profiles["none"], profiles["trustzone"]
        )
        assert diagnosis.total_delta / diagnosis.total_a > 0.05
        dominant = max(diagnosis.parts, key=lambda p: p.delta)
        assert dominant.name == "dma.stall.iotlb"

    def test_json_preserves_exact_deltas(self, profiles):
        diagnosis = diagnose_profiles(
            profiles["none"], profiles["trustzone"]
        )
        payload = json.loads(diagnosis.to_json())
        total = sum(
            Fraction(part["delta_exact"]) for part in payload["parts"]
        )
        assert total == Fraction(payload["total"]["delta_exact"])
        assert total == profiles["trustzone"].total - profiles["none"].total


def test_profile_host_reports_hot_functions(model):
    report = profile_host(model, "snpu", detailed=False, top=5)
    assert "cumulative" in report
    assert "function calls" in report


def test_analytic_mode_profile(model):
    profile = profile_model(model, "snpu", detailed=False)
    assert profile.mode == "analytic"
    assert sum(profile.categories.values(), ZERO) == profile.total


#: Detailed-path profiles of resnet and mobilenet at 112x112: per
#: protection, (cycles, layers, IOTLB walks, Guarder checks,
#: dma.stall.iotlb cycles).  Simulated values, so bit-exact on any host:
#: a change here is a model change.
DETAILED_MATRIX = {
    "resnet": {
        "none": (4179843.25, 31, 0, 0, 0.0),
        "trustzone": (4854630.25, 31, 33719, 0, 704541.5),
        "snpu": (4179843.25, 31, 0, 33601, 0.0),
    },
    "mobilenet": {
        "none": (2228664.25, 29, 0, 0, 0.0),
        "trustzone": (2700812.0, 29, 20253, 0, 500410.0),
        "snpu": (2228664.25, 29, 0, 42446, 0.0),
    },
}


def test_detailed_matrix_is_pinned():
    measured = {}
    for name, protections in DETAILED_MATRIX.items():
        model = zoo.MODEL_BUILDERS[name](112)
        measured[name] = {}
        for protection in protections:
            profile = profile_model(model, protection, detailed=True)
            total = float(profile.total)
            measured[name][protection] = (
                total,
                len(profile.layers),
                profile.counts.get("iotlb.walks", 0),
                profile.counts.get("guarder.checks", 0),
                profile.share("dma.stall.iotlb") * total,
            )
    assert measured == DETAILED_MATRIX
