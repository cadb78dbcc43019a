"""Tests for evaluation metrics."""

import copy

import numpy as np
import pytest

from repro import nn
from repro.attacks.poison import BackdoorTask
from repro.attacks.triggers import pixel_pattern
from repro.data.dataset import Dataset
from repro.eval.metrics import AccuracyEvaluator, attack_success_rate, predict
from repro.eval.metrics import test_accuracy as accuracy_of  # alias: bare name would be collected as a test


class TestPredict:
    def test_batching_consistent(self, tiny_cnn, tiny_dataset):
        a = predict(tiny_cnn, tiny_dataset.images, batch_size=7)
        b = predict(tiny_cnn, tiny_dataset.images, batch_size=60)
        np.testing.assert_array_equal(a, b)

    def test_empty_input(self, tiny_cnn):
        out = predict(tiny_cnn, np.zeros((0, 1, 8, 8)))
        assert out.shape == (0,)

    def test_restores_training_mode(self, tiny_cnn, tiny_dataset):
        tiny_cnn.train()
        predict(tiny_cnn, tiny_dataset.images)
        assert tiny_cnn.training


class TestTestAccuracy:
    def test_training_beats_chance(self, tiny_cnn, tiny_dataset):
        from tests.conftest import train_tiny

        train_tiny(tiny_cnn, tiny_dataset, epochs=10)
        # random 8x8 noise over 5 classes: memorization beats 20% chance
        assert accuracy_of(tiny_cnn, tiny_dataset) > 0.3

    def test_range(self, tiny_cnn, tiny_dataset):
        acc = accuracy_of(tiny_cnn, tiny_dataset)
        assert 0.0 <= acc <= 1.0

    def test_empty_rejected(self, tiny_cnn):
        empty = Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            accuracy_of(tiny_cnn, empty)


class TestAttackSuccessRate:
    def test_equals_accuracy_on_triggered_victims(self, tiny_cnn, tiny_dataset):
        task = BackdoorTask(pixel_pattern(3, 8), victim_label=4, attack_label=1)
        asr = attack_success_rate(tiny_cnn, task, tiny_dataset)
        assert 0.0 <= asr <= 1.0

    def test_backdoored_model_scores_high(self, tiny_cnn, tiny_dataset, rng):
        """Train the model on poisoned data; ASR should be near 1."""
        from repro.attacks.poison import poison_dataset
        from tests.conftest import train_tiny

        task = BackdoorTask(pixel_pattern(5, 8), victim_label=4, attack_label=1)
        poisoned = poison_dataset(tiny_dataset, task, rng=rng)
        train_tiny(tiny_cnn, poisoned, epochs=10)
        assert attack_success_rate(tiny_cnn, task, tiny_dataset) > 0.7


class TestAccuracyEvaluator:
    """AccuracyEvaluator is test_accuracy, bitwise, and never stale."""

    @pytest.fixture
    def data(self, rng):
        # three 256-row batches, the last one partial, as in predict
        images = rng.random((600, 1, 8, 8))
        return Dataset(images, rng.integers(0, 5, size=600))

    @staticmethod
    def check(evaluator, model, data):
        # fresh clone: the reference pass shares no layer cache with
        # the evaluated model
        expected = accuracy_of(copy.deepcopy(model), data)
        assert evaluator(model) == expected
        return expected

    def test_scripted_fp_ft_aw_sequence(self, tiny_cnn, data, tiny_dataset):
        from repro.defense.adjust_weights import zero_extreme_weights
        from tests.conftest import train_tiny

        train_tiny(tiny_cnn, tiny_dataset, epochs=3)
        evaluator = AccuracyEvaluator(data)
        self.check(evaluator, tiny_cnn, data)
        self.check(evaluator, tiny_cnn, data)
        assert (evaluator.misses, evaluator.hits) == (1, 1)

        # FP: prune last-conv channels one by one, undo the last
        layer = tiny_cnn.last_conv()
        for channel in (0, 2, 5):
            layer.out_mask[channel] = False
            self.check(evaluator, tiny_cnn, data)
        layer.out_mask[5] = True
        self.check(evaluator, tiny_cnn, data)
        layer.apply_mask()
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.prefix_hits == 5  # each resumed at the last conv
        assert evaluator.misses == 1

        # FT moves every layer: a full pass
        train_tiny(tiny_cnn, tiny_dataset, epochs=1, seed=1)
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.misses == 2

        # AW: zero extremes with a shrinking delta; a step that zeroes
        # nothing is an exact hit
        hits, prefix_hits = evaluator.hits, evaluator.prefix_hits
        mu, sigma = float(layer.weight.data.mean()), float(layer.weight.data.std())
        zeroed = []
        for delta in (1.5, 1.5, 0.75):
            zeroed.append(zero_extreme_weights(layer, delta, mu, sigma))
            self.check(evaluator, tiny_cnn, data)
        assert zeroed[0] > 0 and zeroed[1] == 0 and zeroed[2] > 0
        assert evaluator.hits == hits + 1
        assert evaluator.prefix_hits == prefix_hits + 2

        # tied logits: argmax keeps the first maximum on both paths
        head = tiny_cnn[-1]
        head.weight.data[2] = head.weight.data[1]
        head.bias.data[2] = head.bias.data[1]
        head.weight.mark_dirty()
        self.check(evaluator, tiny_cnn, data)
        head.weight.data[...] = 0.0
        head.bias.data[...] = 0.0
        head.weight.mark_dirty()
        head.bias.mark_dirty()
        assert self.check(evaluator, tiny_cnn, data) == float(
            (data.labels == 0).mean()
        )

    def test_in_place_write_without_mark_dirty(self, tiny_cnn, data):
        evaluator = AccuracyEvaluator(data)
        before = self.check(evaluator, tiny_cnn, data)
        head = tiny_cnn[-1]
        head.weight.data[...] *= -1.0  # no mark_dirty
        after = self.check(evaluator, tiny_cnn, data)
        assert after != before
        assert evaluator.prefix_hits == 1
        tiny_cnn[0].bias.data[:] += 0.5  # first layer: a full pass
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.misses == 2

    def test_rebind(self, tiny_cnn, data):
        evaluator = AccuracyEvaluator(data)
        self.check(evaluator, tiny_cnn, data)
        conv = tiny_cnn.last_conv()
        conv.weight.data = conv.weight.data[::-1].copy()
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.prefix_hits == 1
        # gradcheck's promotion: same values, another dtype
        for param in tiny_cnn.parameters():
            param.data = param.data.astype(np.float64)
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.misses == 2
        # a rebind to equal bytes changes nothing the output depends on
        for param in tiny_cnn.parameters():
            param.data = param.data.copy()
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.hits == 1

    def test_mask_flip_on_prefix_layer(self, tiny_cnn, data):
        evaluator = AccuracyEvaluator(data)
        before = self.check(evaluator, tiny_cnn, data)
        tiny_cnn[0].out_mask[1] = False
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.misses == 2
        tiny_cnn[0].out_mask[1] = True
        assert self.check(evaluator, tiny_cnn, data) == before
        assert evaluator.misses == 3

    def test_other_model_with_equal_parameters(self, tiny_cnn, data):
        evaluator = AccuracyEvaluator(data)
        before = self.check(evaluator, tiny_cnn, data)
        twin = copy.deepcopy(tiny_cnn)
        assert self.check(evaluator, twin, data) == before
        assert (evaluator.hits, evaluator.misses) == (0, 2)

    def test_replaced_layer(self, tiny_cnn, data, rng):
        evaluator = AccuracyEvaluator(data)
        self.check(evaluator, tiny_cnn, data)
        tiny_cnn.layers[3] = nn.Conv2d(4, 6, kernel_size=3, padding=1, rng=rng)
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.prefix_hits == 1  # its input is still valid
        tiny_cnn.layers[1] = nn.Tanh()
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.misses == 2

    def test_recording_layers_bypass_the_cache(self, tiny_cnn, data):
        evaluator = AccuracyEvaluator(data)
        self.check(evaluator, tiny_cnn, data)
        relu = tiny_cnn[4]
        relu.record_activations(True)
        self.check(evaluator, tiny_cnn, data)
        assert relu.last_activation is not None
        assert (evaluator.hits, evaluator.prefix_hits, evaluator.misses) == (0, 0, 1)
        relu.record_activations(False)
        self.check(evaluator, tiny_cnn, data)
        assert evaluator.hits == 1

    def test_restores_training_mode_and_rejects_empty(self, tiny_cnn, data):
        tiny_cnn.train()
        AccuracyEvaluator(data)(tiny_cnn)
        assert tiny_cnn.training
        empty = Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            AccuracyEvaluator(empty)(tiny_cnn)
