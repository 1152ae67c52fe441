"""Model zoo tests: shapes, policies, index maps, training, caching."""

import numpy as np
import pytest

from repro.data import make_dataset
from repro.models import (
    MODEL_REGISTRY,
    build_model,
    layer_index_map,
    quantizable_layers,
)
from repro.models.zoo import TrainConfig, evaluate_model, get_pretrained, train_model

ALL_MODELS = sorted(MODEL_REGISTRY)


class TestForwardShapes:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_logit_shape(self, name):
        model = build_model(name, num_classes=7)
        model.eval()
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
        out = model.forward(x)
        assert out.shape == (2, 7)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_backward_runs_and_fills_grads(self, name):
        from repro.nn import CrossEntropyLoss

        model = build_model(name, num_classes=4)
        model.eval()
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32)).astype(np.float32)
        crit = CrossEntropyLoss()
        crit(model.forward(x), np.array([0, 1]))
        model.backward(crit.backward())
        missing = [p.name for p in model.parameters() if p.grad is None]
        assert not missing, f"no grads for {missing}"

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("resnet_s999")

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_deterministic_construction(self, name):
        m1 = build_model(name)
        m2 = build_model(name)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)


class TestQuantizationPolicies:
    def test_resnet_policy_excludes_stem_and_fc(self):
        model = build_model("resnet_s34")
        names = [q.name for q in quantizable_layers(model, "resnet_s34")]
        assert not any(n.startswith("stem.") for n in names)
        assert "fc" not in names
        assert any("downsample" in n for n in names)

    def test_resnet20_policy_includes_fc(self):
        model = build_model("resnet_s20")
        names = [q.name for q in quantizable_layers(model, "resnet_s20")]
        assert "fc" in names
        assert any(n.startswith("stem.") for n in names)

    def test_mobilenet_policy_includes_se_fcs(self):
        model = build_model("mobilenet_s")
        names = [q.name for q in quantizable_layers(model, "mobilenet_s")]
        assert any(".se.fc1" in n for n in names)
        assert "classifier" not in names
        assert any(n.startswith("stem.") for n in names)

    def test_vit_policy_encoder_only(self):
        model = build_model("vit_s")
        names = [q.name for q in quantizable_layers(model, "vit_s")]
        assert all(n.startswith("layer.") for n in names)
        # 6 projections per encoder block.
        assert len(names) == 6 * len(model.layer)
        assert any("attention.query" in n for n in names)
        assert any("mlp.output" in n for n in names)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_indices_are_contiguous(self, name):
        model = build_model(name)
        layers = quantizable_layers(model, name)
        assert [q.index for q in layers] == list(range(len(layers)))

    def test_layer_index_map_roundtrip(self):
        model = build_model("resnet_s50")
        mapping = layer_index_map(model, "resnet_s50")
        layers = quantizable_layers(model, "resnet_s50")
        assert mapping == {q.index: q.name for q in layers}

    def test_num_params_matches_weight(self):
        model = build_model("resnet_s20")
        for q in quantizable_layers(model, "resnet_s20"):
            assert q.num_params == q.module.weight.size


class TestTrainingAndZoo:
    def test_short_training_reduces_loss(self):
        ds = make_dataset(num_classes=4, image_size=16)
        model = build_model("resnet_s20", num_classes=4)
        x, y = ds.sample(128, seed=0)
        before, _ = evaluate_model(model, x, y)
        cfg = TrainConfig(epochs=3, n_train=128, n_val=64, lr=0.05, warmup=2)
        metrics = train_model(model, ds, cfg)
        assert metrics["train_loss"] < before

    def test_zoo_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ds = make_dataset(num_classes=3, image_size=16)
        import repro.models.zoo as zoo

        monkeypatch.setitem(
            zoo._RECIPES,
            "resnet_s20",
            TrainConfig(epochs=1, n_train=64, n_val=32),
        )
        m1, metrics1 = get_pretrained("resnet_s20", ds)
        assert (tmp_path / "models").exists()
        m2, metrics2 = get_pretrained("resnet_s20", ds)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
        assert metrics1 == metrics2

    def test_zoo_cache_outcomes_are_counted(self, tmp_path, monkeypatch):
        from repro import telemetry
        import repro.models.zoo as zoo

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setitem(
            zoo._RECIPES, "resnet_s20", TrainConfig(epochs=1, n_train=32, n_val=16)
        )
        ds = make_dataset(num_classes=3, image_size=16)
        telemetry.disable()
        telemetry.reset()
        telemetry.enable()
        try:
            get_pretrained("resnet_s20", ds)  # miss: trains and caches
            get_pretrained("resnet_s20", ds)  # hit
            cached = tmp_path / "models" / "resnet_s20-c3.npz"
            cached.write_bytes(cached.read_bytes()[:64])  # truncate
            get_pretrained("resnet_s20", ds)  # unreadable: retrains
            get_pretrained("resnet_s20", ds)  # the retrain re-cached it
            snap = telemetry.counters_snapshot()
            spans = {c["name"] for c in telemetry.span_tree().get("children", ())}
        finally:
            telemetry.disable()
            telemetry.reset()
        assert snap.get("zoo.cache_miss") == 1
        assert snap.get("zoo.cache_hit") == 2
        assert snap.get("zoo.cache_unreadable") == 1
        assert {"zoo.load", "zoo.train"} <= spans

    def test_evaluate_model_perfect_on_memorized(self):
        """Sanity: accuracy formula via a constant-logit stub."""
        from repro.nn import Linear, Module

        class Stub(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(3, 2)

            def forward(self, x):
                n = x.shape[0]
                out = np.zeros((n, 2), dtype=np.float32)
                out[:, 1] = 1.0
                return out

            def backward(self, g):
                return g

        x = np.zeros((10, 3))
        y = np.ones(10, dtype=int)
        _, acc = evaluate_model(Stub(), x, y)
        assert acc == 1.0
