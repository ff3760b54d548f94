"""Unit tests for cycle-attribution reports and overhead decomposition."""

import json
import math
from fractions import Fraction

import pytest

from repro.analysis.profile import (
    ModelProfile,
    diff_profiles,
    from_dict,
    profile_host,
    profile_model,
)
from repro.experiments.export import (
    render_profile,
    write_profile,
    write_profile_diff,
)
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


class TestProfileDiff:
    def test_deltas_sum_exactly_to_end_to_end_overhead(self, profiles):
        """Fig. 13 corroboration: the per-mechanism deltas *are* the
        end-to-end overhead, decomposed — bit-for-bit."""
        for other in ("trustzone", "snpu"):
            diff = diff_profiles(profiles["none"], profiles[other])
            assert sum(diff.deltas.values(), ZERO) == diff.total_delta
            assert (
                diff.total_delta
                == profiles[other].total - profiles["none"].total
            )

    def test_snpu_overhead_is_negligible(self, profiles):
        """The paper's headline claim: sNPU protection costs <1%."""
        diff = diff_profiles(profiles["none"], profiles["snpu"])
        assert abs(diff.overhead) < 0.01

    def test_trustzone_overhead_dominated_by_iotlb_stalls(self, profiles):
        """Fig. 13 shape: the TrustZone-style baseline pays real overhead,
        and exposed IOMMU page-walk stalls are the dominant mechanism."""
        diff = diff_profiles(profiles["none"], profiles["trustzone"])
        assert diff.overhead > 0.05
        dominant = max(diff.deltas, key=lambda c: diff.deltas[c])
        assert dominant == "dma.stall.iotlb"

    def test_diff_json_preserves_exact_deltas(self, profiles):
        diff = diff_profiles(profiles["none"], profiles["trustzone"])
        payload = json.loads(diff.to_json())
        total = sum(
            Fraction(v) for v in payload["deltas_exact"].values()
        )
        assert total == Fraction(payload["total_delta_exact"])

    def test_diff_table_renders_both_flavors(self, profiles):
        diff = diff_profiles(profiles["none"], profiles["trustzone"])
        plain = diff.to_table()
        md = diff.to_table(markdown=True)
        assert "end-to-end" in plain
        assert md.startswith("##")
        assert "| mechanism |" in md


class TestExports:
    def test_render_profile_formats(self, profiles):
        profile = profiles["none"]
        assert json.loads(render_profile(profile, "json"))
        assert render_profile(profile, "folded") == profile.to_folded()
        assert render_profile(profile, "md") == profile.to_markdown()
        assert render_profile(profile, "table") == profile.to_table()

    def test_write_profile_by_extension(self, profiles, tmp_path):
        profile = profiles["snpu"]
        for name in ("out.json", "out.folded", "out.md"):
            path = tmp_path / name
            write_profile(profile, str(path))
            assert path.read_text()
        restored = from_dict(json.loads((tmp_path / "out.json").read_text()))
        assert restored.total == profile.total

    def test_write_profile_diff(self, profiles, tmp_path):
        diff = diff_profiles(profiles["none"], profiles["trustzone"])
        write_profile_diff(diff, str(tmp_path / "d.json"))
        write_profile_diff(diff, str(tmp_path / "d.md"))
        assert json.loads((tmp_path / "d.json").read_text())
        assert "| mechanism |" in (tmp_path / "d.md").read_text()


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
