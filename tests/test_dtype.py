"""Tests for the dtype-parametric numeric substrate.

float64 stays the default everywhere (bit-identical to the historical
behaviour); float32 must flow coherently through Parameter/Module, the
arena, flat packing, payload round-trips and a full training run.
"""

import numpy as np
import pytest

from repro.compression.base import IndexedPayload, SharedMaskPayload
from tests.reference.compressors import RandomMaskCompressor, TopKCompressor, to_dense
from tests.reference.per_worker import per_worker
from repro.data import make_blobs, partition_iid
from repro.nn import MLP, MnistCNN, ResNet20, TinyCNN
from repro.nn.layers import Linear
from repro.nn.arena import ParameterArena
from repro.nn.module import Parameter
from repro.sim import ExperimentConfig, make_workers, run_experiment
from repro.utils.dtypes import DEFAULT_DTYPE, resolve_dtype


class TestResolveDtype:
    def test_default_is_float64(self):
        assert resolve_dtype(None) == np.float64
        assert DEFAULT_DTYPE == np.float64

    def test_accepts_strings_and_types(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float32) == np.float32
        assert resolve_dtype(np.dtype(np.float64)) == np.float64

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            resolve_dtype(np.int32)
        with pytest.raises(ValueError):
            resolve_dtype("float16")
        with pytest.raises(ValueError):
            resolve_dtype("not-a-dtype")


class TestParameterAndModules:
    def test_parameter_default_casts_to_float64(self):
        param = Parameter(np.array([1, 2, 3], dtype=np.int32))
        assert param.data.dtype == np.float64

    def test_parameter_explicit_dtype(self):
        param = Parameter(np.ones(3), dtype="float32")
        assert param.data.dtype == np.float32

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_linear_layer_dtype(self, dtype):
        layer = Linear(4, 3, rng=0, dtype=dtype)
        assert layer.weight.data.dtype == np.dtype(dtype)
        assert layer.bias.data.dtype == np.dtype(dtype)
        out = layer.forward(np.ones((2, 4), dtype=dtype))
        assert out.dtype == np.dtype(dtype)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.dtype == np.dtype(dtype)
        assert layer.weight.grad.dtype == np.dtype(dtype)

    def test_float32_init_is_rounded_float64_stream(self):
        """Same RNG stream, cast once — not a different initialization."""
        w64 = Linear(8, 4, rng=5).weight.data
        w32 = Linear(8, 4, rng=5, dtype="float32").weight.data
        np.testing.assert_array_equal(w32, w64.astype(np.float32))

    @pytest.mark.parametrize("model_factory", [
        lambda dtype: MLP(6, [8], 3, rng=0, dtype=dtype),
        lambda dtype: TinyCNN(in_channels=1, image_size=8, rng=0, dtype=dtype),
    ])
    def test_model_dtype_property(self, model_factory):
        assert model_factory("float32").dtype == np.float32
        assert model_factory(None).dtype == np.float64

    def test_resnet_threads_dtype(self):
        model = ResNet20(rng=0, dtype="float32")
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        # BatchNorm running stats too — they mix into forward activations.
        assert model.bn1.running_mean.dtype == np.float32

    def test_flat_round_trip_preserves_dtype(self):
        model = MLP(6, [8], 3, rng=0, dtype="float32")
        flat = model.get_flat_params()
        assert flat.dtype == np.float32
        model.set_flat_params(np.asarray(flat, dtype=np.float64) * 2.0)
        assert model.dtype == np.float32  # float64 peer vector cast back
        np.testing.assert_allclose(
            model.get_flat_params(), flat * 2.0, rtol=1e-6
        )


class TestConvStackDtypePreservation:
    """Forward *and* backward must stay in the input dtype through the
    conv/pool stack — regression tests for the float64 leaks (MaxPool2d's
    pad mask among them) that silently upcast float32 activations and
    gradients.  MaxPool2d and Flatten run their per-worker passes from
    ``tests/reference/per_worker.py``."""

    @staticmethod
    def _roundtrip_dtypes(layer, inputs):
        out = layer.forward(inputs)
        grad_in = layer.backward(np.ones_like(out))
        return out.dtype, grad_in.dtype

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_conv2d(self, dtype):
        from repro.nn.layers import Conv2d

        layer = Conv2d(2, 3, 3, padding=1, rng=0, dtype=dtype)
        images = np.ones((2, 2, 6, 6), dtype=dtype)
        out_dtype, grad_dtype = self._roundtrip_dtypes(layer, images)
        assert out_dtype == np.dtype(dtype)
        assert grad_dtype == np.dtype(dtype)
        assert layer.weight.grad.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_maxpool2d(self, dtype, padding):
        from repro.nn.layers import MaxPool2d

        layer = per_worker(MaxPool2d(3, stride=2, padding=padding))
        images = np.arange(2 * 2 * 7 * 7, dtype=dtype).reshape(2, 2, 7, 7)
        out_dtype, grad_dtype = self._roundtrip_dtypes(layer, images)
        assert out_dtype == np.dtype(dtype)
        assert grad_dtype == np.dtype(dtype)

    def test_maxpool2d_gather_index_is_cached(self):
        from repro.nn import functional as F
        from repro.nn.layers import MaxPool2d

        layer = per_worker(MaxPool2d(3, stride=2, padding=1))
        images = np.ones((2, 2, 7, 7), dtype=np.float32)
        F.window_index.cache_clear()
        layer.forward(images)
        built = F.window_index.cache_info().misses
        # The 7×7 input inside its one-cell halo is a 9×9 source.
        index = F.window_index("nchw", 2, 9, 9, (3, 3), (2, 2), True)
        assert index.dtype == np.intp and not index.flags.writeable
        layer.forward(images)
        layer.forward(np.ones((5, 2, 7, 7), dtype=np.float32))
        # Not rebuilt per forward, nor per batch size.
        assert F.window_index.cache_info().misses == built
        layer.forward(np.ones((2, 2, 9, 9), dtype=np.float32))
        assert F.window_index.cache_info().misses == built + 1  # keyed by input size

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_global_avgpool2d(self, dtype):
        from repro.nn.layers import GlobalAvgPool2d

        layer = GlobalAvgPool2d()
        images = np.ones((2, 3, 5, 5), dtype=dtype)
        out = layer.forward(images)
        grad_in = layer.backward(np.ones_like(out))
        assert out.dtype == np.dtype(dtype)
        assert grad_in.dtype == np.dtype(dtype)
        assert grad_in.shape == images.shape

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_batchnorm2d(self, dtype):
        from repro.nn.layers import BatchNorm2d

        layer = BatchNorm2d(3, dtype=dtype)
        images = np.random.default_rng(0).normal(size=(4, 3, 5, 5)).astype(dtype)
        out_dtype, grad_dtype = self._roundtrip_dtypes(layer, images)
        assert out_dtype == np.dtype(dtype)
        assert grad_dtype == np.dtype(dtype)
        assert layer.running_mean.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_full_tiny_cnn_forward_backward(self, dtype):
        model = per_worker(TinyCNN(in_channels=1, image_size=8, rng=0, dtype=dtype))
        model.zero_grad()
        images = np.random.default_rng(1).normal(size=(4, 1, 8, 8)).astype(dtype)
        logits = model.forward(images)
        assert logits.dtype == np.dtype(dtype)
        grad_in = model.backward(np.ones_like(logits) / logits.size)
        assert grad_in.dtype == np.dtype(dtype)
        assert all(
            p.grad.dtype == np.dtype(dtype) for p in model.parameters()
        )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_full_mnist_cnn_style_padded_stack(self, dtype):
        """Conv + padded MaxPool + Flatten end to end."""
        from repro.nn.activations import ReLU
        from repro.nn.module import Sequential
        from repro.nn.layers import Conv2d, Flatten, MaxPool2d

        model = per_worker(Sequential(
            Conv2d(1, 4, 5, padding=2, rng=0, dtype=dtype),
            ReLU(),
            MaxPool2d(3, stride=2, padding=1),
            Flatten(),
            Linear(4 * 4 * 4, 3, rng=0, dtype=dtype),
        ))
        model.zero_grad()
        images = np.random.default_rng(2).normal(size=(2, 1, 8, 8)).astype(dtype)
        logits = model.forward(images)
        assert logits.dtype == np.dtype(dtype)
        grad_in = model.backward(np.ones_like(logits))
        assert grad_in.dtype == np.dtype(dtype)
        assert all(
            p.grad.dtype == np.dtype(dtype) for p in model.parameters()
        )


class TestArenaDtype:
    def test_default_float64(self):
        arena = ParameterArena(2, 10)
        assert arena.dtype == np.float64
        assert arena.data.dtype == np.float64

    def test_explicit_float32(self):
        arena = ParameterArena(2, 10, dtype="float32")
        assert arena.data.dtype == np.float32
        assert arena.grads.dtype == np.float32

    def test_adopt_infers_model_dtype(self):
        models = [MLP(4, [5], 3, rng=0, dtype="float32") for _ in range(3)]
        arena = ParameterArena.adopt_models(models)
        assert arena.dtype == np.float32
        for model in models:
            assert model.get_flat_params().dtype == np.float32
            assert model.get_flat_params().base is arena.data

    def test_adopt_rehomogenizes_to_arena_dtype(self):
        """An explicit arena dtype wins: float64 models become float32
        views, preserving values up to rounding."""
        models = [MLP(4, [5], 3, rng=7) for _ in range(2)]
        reference = models[0].get_flat_params().copy()
        arena = ParameterArena.adopt_models(models, dtype="float32")
        assert models[0].dtype == np.float32
        np.testing.assert_array_equal(
            models[0].get_flat_params(), reference.astype(np.float32)
        )
        assert arena.mean_model().dtype == np.float32

    def test_mix_stays_in_dtype(self):
        arena = ParameterArena(2, 4, dtype="float32")
        arena.data[...] = [[1, 2, 3, 4], [5, 6, 7, 8]]
        arena.mix(np.full((2, 2), 0.5))
        assert arena.data.dtype == np.float32
        np.testing.assert_allclose(arena.data[0], [3, 4, 5, 6])


class TestPayloadDtype:
    """Satellite regression: ``to_dense`` must honor the source dtype —
    a float32 payload silently re-inflated to float64 would double the
    modelled memory traffic."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_all_payload_types(self, dtype):
        values = np.array([1.0, -2.0], dtype=dtype)
        indices = np.array([1, 3])
        assert (
            to_dense(SharedMaskPayload(values, indices, mask_seed=0), 5).dtype
            == dtype
        )
        assert to_dense(IndexedPayload(values, indices), 5).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_compressors_preserve_input_dtype(self, rng, dtype):
        vector = rng.normal(size=100).astype(dtype)
        mask_payload = RandomMaskCompressor(4.0).compress_with_seed(vector, 1)
        topk_payload = TopKCompressor(4.0).compress(vector)
        assert mask_payload.values.dtype == dtype
        assert to_dense(mask_payload, 100).dtype == dtype
        assert topk_payload.values.dtype == dtype
        assert to_dense(topk_payload, 100).dtype == dtype


class TestTrainingDtype:
    def _workload(self, workers=4):
        data = make_blobs(num_samples=80 + 100, num_classes=4,
                          num_features=8, rng=0)
        train, validation = data.split(fraction=80 / 180, rng=0)
        return partition_iid(train, workers, rng=0), validation

    def test_make_workers_casts_everything(self):
        partitions, _ = self._workload()
        config = ExperimentConfig(rounds=1, dtype="float32")
        workers = make_workers(
            lambda: MLP(8, [6], 4, rng=0), partitions, config
        )
        for worker in workers:
            assert worker.model.dtype == np.float32
            assert worker.model._arena.dtype == np.float32
        loss = workers[0].local_step()
        assert workers[0].model._flat_grad_view.dtype == np.float32
        assert np.isfinite(loss)

    def test_config_normalizes_and_validates(self):
        assert ExperimentConfig(rounds=1, dtype=np.float32).dtype == "float32"
        assert ExperimentConfig(rounds=1).dtype == "float64"
        with pytest.raises(ValueError):
            ExperimentConfig(rounds=1, dtype="int32")

    def test_float32_run_tracks_float64(self):
        """The reduced-precision path must converge on the same workload
        to the same accuracy neighbourhood (documented tolerance: 2%)."""
        from repro.algorithms import SAPSPSGD

        results = {}
        for dtype in ("float64", "float32"):
            partitions, validation = self._workload()
            config = ExperimentConfig(
                rounds=25, batch_size=8, lr=0.1, eval_every=25,
                seed=0, dtype=dtype,
            )
            algorithm = SAPSPSGD(
                compression_ratio=4.0, selector="ring", base_seed=0
            )
            results[dtype] = run_experiment(
                algorithm,
                partitions,
                validation,
                lambda: MLP(8, [6], 4, rng=0, dtype=dtype),
                config,
            )
        acc64 = results["float64"].final_accuracy
        acc32 = results["float32"].final_accuracy
        assert acc64 > 0.8  # workload sanity
        assert abs(acc64 - acc32) <= 0.02
