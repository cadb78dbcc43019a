"""Tests for the Neural Cleanse baseline."""

import copy

import numpy as np
import pytest

from repro.baselines.neural_cleanse import (
    NeuralCleanse,
    ReconstructedTrigger,
    anomaly_indices,
    detect_backdoor_labels,
    reconstruct_trigger,
    unlearn_trigger,
)
from repro.baselines.neural_cleanse import _tanh_unit, _tanh_unit_grad
from repro.data.dataset import DataLoader, Dataset
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Parameter
from repro.nn.optim import Adam


def _unfrozen_reconstruction(model, dataset, target_label, steps, rng):
    """The trigger loop as written before parameter freezing: every step
    computes the parameter gradients and discards them (``zero_grad``)."""
    channels, height, width = dataset.images.shape[1:]
    raw_mask = Parameter(rng.normal(-2.0, 0.1, size=(height, width)))
    raw_pattern = Parameter(rng.normal(0.0, 0.1, size=(channels, height, width)))
    optimizer = Adam([raw_mask, raw_pattern], lr=0.1)
    loss_fn = CrossEntropyLoss()
    model.eval()
    loader = DataLoader(dataset, batch_size=64, shuffle=True, rng=rng)
    batches = iter(loader)
    for _ in range(steps):
        try:
            images, _ = next(batches)
        except StopIteration:
            batches = iter(loader)
            images, _ = next(batches)
        mask = _tanh_unit(raw_mask.data)
        pattern = _tanh_unit(raw_pattern.data)
        stamped = (1.0 - mask) * images + mask * pattern[None]
        targets = np.full(images.shape[0], target_label, dtype=np.int64)
        loss_fn(model(stamped), targets)
        model.zero_grad()
        grad_input = model.backward(loss_fn.backward())
        model.zero_grad()
        grad_pattern = (grad_input * mask).sum(axis=0)
        grad_mask = (grad_input * (pattern[None] - images)).sum(axis=(0, 1))
        grad_mask += 0.01 * np.sign(mask)
        optimizer.zero_grad()
        raw_mask.grad[...] = grad_mask * _tanh_unit_grad(raw_mask.data)
        raw_pattern.grad[...] = grad_pattern * _tanh_unit_grad(raw_pattern.data)
        optimizer.step()
    return _tanh_unit(raw_mask.data), _tanh_unit(raw_pattern.data)


class TestReconstructedTrigger:
    def test_apply_blends(self, rng):
        mask = np.zeros((4, 4))
        mask[0, 0] = 1.0
        pattern = np.ones((1, 4, 4))
        trigger = ReconstructedTrigger(3, mask, pattern)
        images = np.zeros((2, 1, 4, 4))
        out = trigger.apply(images)
        assert out[0, 0, 0, 0] == pytest.approx(1.0)
        assert out[0, 0, 1, 1] == pytest.approx(0.0)

    def test_mask_norm(self):
        mask = np.full((3, 3), 0.5)
        trigger = ReconstructedTrigger(0, mask, np.zeros((1, 3, 3)))
        assert trigger.mask_norm == pytest.approx(4.5)


class TestAnomalyIndices:
    def test_outlier_flagged_negative(self):
        norms = np.array([10.0, 11.0, 9.5, 10.5, 1.0])
        indices = anomaly_indices(norms)
        assert indices[-1] < -2.0
        assert abs(indices[0]) < 2.0

    def test_constant_norms_zero(self):
        indices = anomaly_indices(np.full(5, 7.0))
        np.testing.assert_array_equal(indices, 0.0)

    def test_detect_backdoor_labels(self):
        triggers = [
            ReconstructedTrigger(i, np.full((3, 3), 1.0), np.zeros((1, 3, 3)))
            for i in range(4)
        ]
        triggers.append(
            ReconstructedTrigger(4, np.full((3, 3), 0.01), np.zeros((1, 3, 3)))
        )
        # add mild variation so MAD is nonzero
        triggers[1].mask[0, 0] = 0.9
        triggers[2].mask[0, 0] = 1.1
        flagged = detect_backdoor_labels(triggers, threshold=2.0)
        assert flagged == [4]


class TestReconstructTrigger:
    def test_drives_predictions_to_target(self, tiny_cnn, tiny_dataset, rng):
        """On a trained model, the optimized trigger should push most
        inputs toward the target label."""
        from tests.conftest import train_tiny

        train_tiny(tiny_cnn, tiny_dataset, epochs=6)
        target = 2
        trigger = reconstruct_trigger(
            tiny_cnn, tiny_dataset, target, steps=60, lr=0.2, l1_coef=0.001, rng=rng
        )
        stamped = trigger.apply(tiny_dataset.images)
        predictions = tiny_cnn(stamped).argmax(axis=1)
        assert (predictions == target).mean() > 0.5

    def test_mask_in_unit_range(self, tiny_cnn, tiny_dataset, rng):
        trigger = reconstruct_trigger(
            tiny_cnn, tiny_dataset, 0, steps=5, rng=rng
        )
        assert trigger.mask.min() >= 0.0 and trigger.mask.max() <= 1.0
        assert trigger.pattern.min() >= 0.0 and trigger.pattern.max() <= 1.0

    def test_model_parameters_untouched(self, tiny_cnn, tiny_dataset, rng):
        before = tiny_cnn.flat_parameters()
        reconstruct_trigger(tiny_cnn, tiny_dataset, 1, steps=5, rng=rng)
        np.testing.assert_array_equal(tiny_cnn.flat_parameters(), before)

    def test_empty_dataset_rejected(self, tiny_cnn, rng):
        empty = Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="need data"):
            reconstruct_trigger(tiny_cnn, empty, 0, rng=rng)

    def test_frozen_loop_matches_unfrozen_reference(self, tiny_cnn, tiny_dataset):
        """Freezing the model skips only parameter gradients: the trigger
        is bitwise the one the per-step ``zero_grad`` loop produced."""
        reference = copy.deepcopy(tiny_cnn)
        trigger = reconstruct_trigger(
            tiny_cnn, tiny_dataset, 2, steps=12, rng=np.random.default_rng(5)
        )
        mask, pattern = _unfrozen_reconstruction(
            reference, tiny_dataset, 2, steps=12, rng=np.random.default_rng(5)
        )
        assert trigger.mask.tobytes() == mask.tobytes()
        assert trigger.pattern.tobytes() == pattern.tobytes()
        for param in tiny_cnn.parameters():
            assert param.requires_grad
            assert not param.grad.any()

    def test_requires_grad_restored_after_exception(self, tiny_cnn, tiny_dataset, rng):
        tiny_cnn[-1].weight.requires_grad = False  # a caller's own freeze
        calls = {"n": 0}
        forward = tiny_cnn[0].forward

        def failing(x):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("boom")
            return forward(x)

        tiny_cnn[0].forward = failing
        tiny_cnn.train()
        with pytest.raises(RuntimeError, match="boom"):
            reconstruct_trigger(tiny_cnn, tiny_dataset, 1, steps=5, rng=rng)
        flags = [param.requires_grad for param in tiny_cnn.parameters()]
        assert flags == [True] * (len(flags) - 2) + [False, True]
        assert tiny_cnn.training

    def test_profiler_records_frozen_conv_backward(self, tiny_cnn, tiny_dataset, rng):
        from repro.obs.profile import LayerProfiler

        with LayerProfiler() as profiler:
            reconstruct_trigger(tiny_cnn, tiny_dataset, 1, steps=4, rng=rng)
        convs = [row for key, row in profiler.stats.items() if key.startswith("Conv2d")]
        assert len(convs) == 2
        assert all(row["backward_calls"] == 4 for row in convs)


class TestUnlearnAndRun:
    def test_unlearn_changes_model(self, tiny_cnn, tiny_dataset, rng):
        trigger = ReconstructedTrigger(
            0, np.full((8, 8), 0.1), np.zeros((1, 8, 8))
        )
        before = tiny_cnn.flat_parameters()
        unlearn_trigger(tiny_cnn, tiny_dataset, trigger, epochs=1, rng=rng)
        assert not np.allclose(tiny_cnn.flat_parameters(), before)

    def test_invalid_stamp_fraction(self, tiny_cnn, tiny_dataset, rng):
        trigger = ReconstructedTrigger(0, np.zeros((8, 8)), np.zeros((1, 8, 8)))
        with pytest.raises(ValueError):
            unlearn_trigger(
                tiny_cnn, tiny_dataset, trigger, stamp_fraction=0.0, rng=rng
            )

    def test_full_run_flags_at_least_one_label(self, tiny_cnn, tiny_dataset, rng):
        cleanse = NeuralCleanse(steps=5, unlearn_epochs=1, rng=rng)
        flagged = cleanse.run(tiny_cnn, tiny_dataset, num_classes=5)
        assert len(flagged) >= 1
        assert all(0 <= label < 5 for label in flagged)
