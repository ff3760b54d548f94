"""Unit tests for the workload zoo and layer lowering."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import ConfigError
from repro.workloads import zoo
from repro.workloads.model import (
    AttentionMatmulSpec,
    ConvSpec,
    DenseSpec,
    EltwiseSpec,
    GemmSpec,
    ModelGraph,
    PoolSpec,
    VectorSpec,
)


class TestConvLowering:
    def test_shapes(self):
        conv = ConvSpec("c", in_h=32, in_w=32, in_c=3, out_c=16, kernel=3,
                        stride=1, padding=1)
        assert conv.out_h == 32 and conv.out_w == 32
        (g,) = conv.lower()
        assert (g.m, g.k, g.n) == (32 * 32, 27, 16)
        assert g.macs == 32 * 32 * 27 * 16

    def test_strided_shapes(self):
        conv = ConvSpec("c", 224, 224, 3, 96, kernel=11, stride=4, padding=2)
        assert conv.out_h == 55

    def test_grouped(self):
        conv = ConvSpec("c", 16, 16, 32, 32, kernel=3, padding=1, groups=32)
        (g,) = conv.lower()
        assert g.repeat == 32
        assert (g.k, g.n) == (9, 1)

    def test_groups_must_divide(self):
        with pytest.raises(ConfigError):
            ConvSpec("c", 16, 16, 30, 32, kernel=3, groups=4)

    def test_collapsed_output_rejected(self):
        with pytest.raises(ConfigError):
            ConvSpec("c", 2, 2, 3, 8, kernel=5).out_h

    def test_im2col_input_accounting(self):
        conv = ConvSpec("c", 32, 32, 8, 16, kernel=3, padding=1)
        (g,) = conv.lower()
        # DRAM streams the raw feature map per pass, not the k^2-inflated
        # im2col matrix.
        assert g.input_bytes_per_pass == 32 * 32 * 8
        assert g.input_bytes_per_pass < g.m * g.k

    def test_halo_set_when_kernel_exceeds_stride(self):
        overlap = ConvSpec("c", 32, 32, 8, 16, kernel=3, padding=1)
        assert overlap.lower()[0].input_halo_bytes == 2 * 32 * 8
        no_overlap = ConvSpec("c", 32, 32, 8, 16, kernel=2, stride=2)
        assert no_overlap.lower()[0].input_halo_bytes == 0


class TestOtherLayers:
    def test_dense(self):
        (g,) = DenseSpec("fc", 128, 64, batch=4).lower()
        assert (g.m, g.k, g.n) == (4, 128, 64)

    def test_pool_is_vector(self):
        (v,) = PoolSpec("p", 8, 8, 16, kernel=2).lower()
        assert isinstance(v, VectorSpec)
        assert v.elements == 4 * 4 * 16
        assert v.ops_per_element == 4

    def test_eltwise(self):
        (v,) = EltwiseSpec("add", elements=100, operands=2).lower()
        assert v.in_bytes == 200 and v.out_bytes == 100

    def test_attention_b_is_activation(self):
        (g,) = AttentionMatmulSpec("qk", m=64, k=32, n=64, heads=4).lower()
        assert g.b_is_activation
        assert g.repeat == 4

    def test_gemm_defaults(self):
        g = GemmSpec("g", m=8, k=8, n=8)
        assert g.input_bytes_per_pass == 64
        assert g.weight_bytes == 64
        assert g.output_bytes == 64

    def test_degenerate_gemm_rejected(self):
        with pytest.raises(ConfigError):
            GemmSpec("g", m=0, k=8, n=8)


class TestZoo:
    @pytest.mark.parametrize("name", list(zoo.MODEL_BUILDERS))
    def test_builders_lower_cleanly(self, name):
        model = zoo.MODEL_BUILDERS[name](56) if name != "bert" else zoo.bert(64, 2)
        kernels = model.lower()
        assert kernels
        assert model.total_macs > 0

    def test_paper_models_names(self):
        names = [m.name for m in zoo.paper_models("tiny")]
        assert names == [
            "googlenet", "alexnet", "yololite", "mobilenet", "resnet", "bert",
        ]

    def test_profiles_scale_compute(self):
        tiny = zoo.alexnet(56).total_macs
        eval_ = zoo.alexnet(112).total_macs
        paper = zoo.alexnet(224).total_macs
        assert tiny < eval_ < paper

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            zoo.paper_models("huge")

    def test_alexnet_known_mac_count(self):
        # AlexNet at 224x224 is ~0.7 GMACs in the standard accounting.
        macs = zoo.alexnet(224).total_macs
        assert 0.5e9 < macs < 1.2e9

    def test_resnet18_known_mac_count(self):
        # ResNet-18 at 224x224 is ~1.8 GMACs.
        macs = zoo.resnet18(224).total_macs
        assert 1.4e9 < macs < 2.4e9

    def test_mobilenet_known_mac_count(self):
        # MobileNet v1 at 224x224 is ~0.57 GMACs.
        macs = zoo.mobilenet(224).total_macs
        assert 0.4e9 < macs < 0.8e9

    def test_bert_known_mac_count(self):
        # BERT-base, seq 128: ~11 GMACs for the encoder stack.
        macs = zoo.bert(128, 12).total_macs
        assert 8e9 < macs < 16e9

    def test_mobilenet_has_depthwise(self):
        kernels = zoo.mobilenet(112).lower()
        assert any(
            isinstance(k, GemmSpec) and k.repeat > 1 for k in kernels
        )

    def test_cache_key_distinguishes_variants(self):
        assert zoo.bert(128, 6).cache_key != zoo.bert(112, 12).cache_key
        assert zoo.alexnet(112).cache_key == zoo.alexnet(112).cache_key

    def test_min_input_size(self):
        with pytest.raises(ConfigError):
            zoo.alexnet(16)

    def test_input_shapes_recorded(self):
        assert zoo.yololite(224).input_shape == (224, 224, 3)

    def test_summary_is_readable(self):
        text = zoo.yololite(112).summary()
        assert "yololite" in text and "GEMM" in text


class TestCacheKeyMemo:
    """``cache_key`` is hashed once per content and re-hashed whenever
    the ``(name, layers)`` content changes, on any copy of the graph."""

    @staticmethod
    def _graph(name="g"):
        return ModelGraph(name, [
            DenseSpec("fc1", 64, 32),
            EltwiseSpec("act", 32),
            DenseSpec("fc2", 32, 10),
        ])

    @staticmethod
    def _fresh_key(graph):
        """The key a freshly built graph with this content has."""
        return ModelGraph(graph.name, list(graph.layers)).cache_key

    def test_add_rehashes(self):
        g = self._graph()
        before = g.cache_key
        g.add(DenseSpec("fc3", 10, 4))
        assert g.cache_key != before
        assert g.cache_key == self._fresh_key(g)

    def test_replaced_layer_rehashes(self):
        g = self._graph()
        before = g.cache_key
        g.layers[1] = EltwiseSpec("act", 32, operands=1)
        assert g.cache_key != before
        assert g.cache_key == self._fresh_key(g)

    def test_rename_rehashes(self):
        g = self._graph()
        before = g.cache_key
        g.name = "renamed"
        assert g.cache_key != before
        assert g.cache_key == self._fresh_key(g)

    def test_shallow_copy_then_append(self):
        g = self._graph()
        before = g.cache_key
        c = copy.copy(g)
        c.add(DenseSpec("fc3", 10, 4))
        # The copy shares the layer list, so both graphs changed.
        assert c.cache_key == self._fresh_key(c) != before
        assert g.cache_key == self._fresh_key(g)

    def test_pickle_round_trip(self):
        g = self._graph()
        g.cache_key
        h = pickle.loads(pickle.dumps(g))
        assert h.cache_key == g.cache_key == self._fresh_key(h)
        h.add(DenseSpec("fc3", 10, 4))
        assert h.cache_key == self._fresh_key(h) != g.cache_key

    def test_equal_content_shares_a_key(self):
        a, b = self._graph(), self._graph()
        assert a.cache_key == b.cache_key
        a.add(DenseSpec("fc3", 10, 4))
        c = self._graph()
        c.add(DenseSpec("fc3", 10, 4))
        assert a.cache_key == c.cache_key != b.cache_key

    def test_memo_is_not_a_field(self):
        g = self._graph()
        before = (repr(g), dataclasses.asdict(g))
        g.cache_key
        assert (repr(g), dataclasses.asdict(g)) == before
        assert g == self._graph()
