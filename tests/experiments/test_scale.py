"""Tests for experiment scale presets."""

import numpy as np
import pytest

from repro.experiments.scale import (
    BENCH,
    BENCH_PRESETS,
    PAPER,
    SMOKE,
    build_bench_world,
    get_scale,
)


class TestPresets:
    def test_lookup(self):
        assert get_scale("smoke") is SMOKE
        assert get_scale("bench") is BENCH
        assert get_scale("paper") is PAPER

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown scale"):
            get_scale("huge")

    def test_ordering(self):
        """Presets grow monotonically in budget."""
        assert SMOKE.num_samples < BENCH.num_samples < PAPER.num_samples
        assert SMOKE.rounds < BENCH.rounds < PAPER.rounds

    def test_dataset_specific_knobs(self):
        assert BENCH.samples_for("cifar") == BENCH.cifar_samples
        assert BENCH.samples_for("mnist") == BENCH.num_samples
        assert BENCH.rounds_for("cifar") == BENCH.cifar_rounds

    def test_image_size_compatible_with_pooling(self):
        for preset in (SMOKE, BENCH, PAPER):
            assert preset.image_size % 16 == 0  # vgg_small pools 4 times


class TestBenchWorld:
    """The synthetic service world behind ``serve`` and the examples."""

    @pytest.mark.parametrize("scale", sorted(BENCH_PRESETS))
    def test_world_matches_preset(self, scale):
        preset = BENCH_PRESETS[scale]
        model, clients, dataset = build_bench_world(scale)
        size = preset["image_size"]
        assert len(clients) == preset["num_clients"]
        assert len(dataset) == preset["num_clients"] * preset["samples_per_client"]
        assert dataset.images.shape[1:] == (1, size, size)
        assert set(np.unique(dataset.labels)) == set(range(preset["num_classes"]))
        for client in clients:
            assert len(client.dataset) == preset["samples_per_client"]
            assert client.config.batch_size == preset["batch_size"]
            assert client.config.local_epochs == preset["local_epochs"]
        logits = model(dataset.images[:3])
        assert logits.shape == (3, preset["num_classes"])

    @pytest.mark.parametrize("scale", sorted(BENCH_PRESETS))
    def test_same_seed_rebuilds_identical_world(self, scale):
        model_a, clients_a, data_a = build_bench_world(scale, seed=11)
        model_b, clients_b, data_b = build_bench_world(scale, seed=11)
        np.testing.assert_array_equal(data_a.images, data_b.images)
        np.testing.assert_array_equal(data_a.labels, data_b.labels)
        np.testing.assert_array_equal(
            model_a.flat_parameters(), model_b.flat_parameters()
        )
        for a, b in zip(clients_a, clients_b):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_seed_changes_data_and_weights(self):
        model_a, _, data_a = build_bench_world("smoke", seed=1)
        model_b, _, data_b = build_bench_world("smoke", seed=2)
        assert not np.array_equal(data_a.images, data_b.images)
        assert not np.array_equal(
            model_a.flat_parameters(), model_b.flat_parameters()
        )

    def test_clients_hold_disjoint_contiguous_shards(self):
        _, clients, dataset = build_bench_world("smoke")
        np.testing.assert_array_equal(
            np.concatenate([c.dataset.images for c in clients]), dataset.images
        )
        assert [c.client_id for c in clients] == list(range(len(clients)))

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            build_bench_world("paper")
