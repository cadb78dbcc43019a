"""The Aggregator protocol, its registry, and the new defense rules."""

import warnings

import numpy as np
import pytest

from repro.fl.aggregation import (
    Aggregator,
    FoolsGold,
    FunctionAggregator,
    GeometricMedian,
    NormClip,
    RobustLR,
    TrimmedMean,
    FedAvg,
    aggregator_names,
    build_aggregator,
    bulyan,
    coordinate_median,
    fedavg,
    krum,
    multi_krum,
    trimmed_mean,
)
from repro.fl.server import FederatedServer
from repro.specs import coerce_value, format_spec, parse_spec

NEW_RULES = ("foolsgold", "rfa", "robust_lr", "norm_clip")


class TestSpecParsing:
    def test_bare_name(self):
        assert parse_spec("fedavg") == ("fedavg", {})

    def test_params_coerced(self):
        name, params = parse_spec("norm_clip:budget=1.5,noise_std=0,seed=7")
        assert name == "norm_clip"
        assert params == {"budget": 1.5, "noise_std": 0, "seed": 7}
        assert isinstance(params["noise_std"], int)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("true", True),
            ("False", False),
            ("none", None),
            ("null", None),
            ("3", 3),
            ("3.5", 3.5),
            ("hello", "hello"),
        ],
    )
    def test_coerce_value(self, raw, expected):
        assert coerce_value(raw) == expected

    @pytest.mark.parametrize(
        "bad", ["", ":", "name:", "name:x", "name:a=1,a=2", ":a=1"]
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_non_string_rejected(self):
        with pytest.raises(TypeError, match="string"):
            parse_spec(42)

    def test_format_round_trips(self):
        spec = format_spec("rfa", {"max_iters": 4, "smoothing": 1e-06})
        assert parse_spec(spec) == ("rfa", {"max_iters": 4, "smoothing": 1e-06})


class TestBuildAggregator:
    def test_all_registered_names_build(self):
        for name in aggregator_names():
            agg = build_aggregator(name)
            assert isinstance(agg, Aggregator)
            assert agg.name == name

    def test_spec_string_sets_params(self):
        agg = build_aggregator("trimmed_mean:trim_ratio=0.2")
        assert isinstance(agg, TrimmedMean)
        assert agg.trim_ratio == 0.2
        assert agg.spec() == "trimmed_mean:trim_ratio=0.2"

    def test_instance_passes_through(self):
        agg = FoolsGold()
        assert build_aggregator(agg) is agg

    def test_callable_wrapped(self):
        agg = build_aggregator(coordinate_median)
        assert isinstance(agg, FunctionAggregator)
        assert agg.name == "coordinate_median"
        u = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        np.testing.assert_array_equal(agg(u), coordinate_median(u))

    @pytest.mark.parametrize(
        "name, fn",
        [
            ("fedavg", fedavg),
            ("median", coordinate_median),
            ("trimmed_mean", trimmed_mean),
            ("krum", krum),
            ("multi_krum", multi_krum),
            ("bulyan", bulyan),
        ],
    )
    def test_original_names_reproduce_bare_functions(self, name, fn, rng):
        """Each of the six original rules, built by name with default
        parameters, aggregates bit-for-bit like its bare function."""
        updates = rng.standard_normal((9, 7))
        np.testing.assert_array_equal(build_aggregator(name)(updates), fn(updates))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown aggregator 'nope'"):
            build_aggregator("nope")

    def test_bad_parameter_name(self):
        with pytest.raises(ValueError, match="bad parameters for aggregator"):
            build_aggregator("fedavg:bogus=1")

    def test_bad_parameter_value(self):
        with pytest.raises(ValueError, match="trim_ratio"):
            build_aggregator("trimmed_mean:trim_ratio=0.7")


class TestAggregatorProtocol:
    def test_stateless_state_dict_roundtrip(self):
        agg = build_aggregator("median")
        assert agg.state_dict() == {}
        agg.load_state_dict({})  # accepted
        agg.load_state_dict(None)  # also accepted
        with pytest.raises(ValueError, match="stateless"):
            agg.load_state_dict({"history": {}})

    def test_callable_matches_aggregate(self, rng):
        u = rng.standard_normal((5, 6))
        agg = build_aggregator("rfa")
        np.testing.assert_array_equal(agg(u), agg.aggregate(u))

    def test_repr_carries_spec(self):
        assert "num_byzantine=2" in repr(build_aggregator("krum:num_byzantine=2"))


class TestFoolsGold:
    def test_downweights_sybils(self):
        rng = np.random.default_rng(3)
        honest = rng.normal(0, 1.0, (4, 32))
        sybil = np.tile(rng.normal(0, 1.0, (1, 32)), (3, 1))
        updates = np.vstack([honest, sybil])
        fg = FoolsGold()
        for _ in range(3):  # history sharpens the similarity signal
            result = fg.aggregate(updates, client_ids=list(range(7)))
        assert np.isfinite(result).all()
        weights = fg._learning_weights(
            np.stack([fg.history[c] for c in range(7)])
        )
        assert weights[4:].max() < weights[:4].min()

    def test_identical_clients_contribute_nothing(self):
        updates = np.tile(np.arange(4.0), (3, 1))
        result = FoolsGold().aggregate(updates)
        np.testing.assert_array_equal(result, np.zeros(4))

    def test_single_client_passthrough(self):
        u = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_allclose(FoolsGold().aggregate(u), u[0])

    def test_state_round_trip_bitwise(self, rng):
        fg = FoolsGold()
        for r in range(3):
            fg.aggregate(rng.standard_normal((5, 8)), client_ids=[2, 3, 5, 7, 11])
        clone = FoolsGold()
        clone.load_state_dict(fg.state_dict())
        assert sorted(clone.history) == sorted(fg.history)
        for cid in fg.history:
            assert clone.history[cid].tobytes() == fg.history[cid].tobytes()
        u = rng.standard_normal((5, 8))
        a = fg.aggregate(u, client_ids=[2, 3, 5, 7, 11])
        b = clone.aggregate(u, client_ids=[2, 3, 5, 7, 11])
        assert a.tobytes() == b.tobytes()

    def test_history_keyed_by_client_id_not_row(self, rng):
        fg = FoolsGold()
        fg.aggregate(rng.standard_normal((3, 4)), client_ids=[10, 20, 30])
        fg.aggregate(rng.standard_normal((2, 4)), client_ids=[30, 10])
        assert sorted(fg.history) == [10, 20, 30]

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            FoolsGold(epsilon=0)


class TestGeometricMedian:
    def test_resists_far_outlier(self):
        rng = np.random.default_rng(5)
        cluster = rng.normal(0, 0.1, (6, 8))
        updates = np.vstack([cluster, np.full((1, 8), 1e6)])
        agg = GeometricMedian().aggregate(updates)
        assert np.abs(agg).max() < 1.0

    def test_single_point_is_fixed_point(self):
        u = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(GeometricMedian().aggregate(u), u[0])

    def test_weiszfeld_beats_mean_on_outlier(self):
        updates = np.vstack([np.zeros((5, 4)), np.full((1, 4), 100.0)])
        gm = GeometricMedian(max_iters=32).aggregate(updates)
        assert np.abs(gm).max() < np.abs(updates.mean(axis=0)).max()

    def test_validation(self):
        with pytest.raises(ValueError, match="max_iters"):
            GeometricMedian(max_iters=0)
        with pytest.raises(ValueError, match="smoothing"):
            GeometricMedian(smoothing=0)


class TestRobustLR:
    def test_flips_low_agreement_coordinates(self):
        # coordinate 0: all agree (+); coordinate 1: split 2/2
        updates = np.array(
            [[1.0, 1.0], [2.0, 1.0], [1.5, -1.0], [0.5, -1.0]]
        )
        agg = RobustLR(threshold=4).aggregate(updates)
        mean = updates.mean(axis=0)
        assert agg[0] == pytest.approx(mean[0])  # consensus kept
        assert agg[1] == pytest.approx(-mean[1])  # flipped

    def test_fractional_threshold(self):
        updates = np.array([[1.0], [1.0], [-1.0]])
        # 2/3 agreement: |sum(sign)| = 1 < ceil(0.9*3) = 3 -> flip
        agg = RobustLR(threshold=0.9).aggregate(updates)
        assert agg[0] == pytest.approx(-updates.mean())

    def test_validation(self):
        with pytest.raises(ValueError, match="fractional threshold"):
            RobustLR(threshold=1.5)
        with pytest.raises(ValueError, match=">= 1"):
            RobustLR(threshold=0)


class TestNormClip:
    def test_clips_oversized_update(self):
        updates = np.vstack([np.ones((3, 4)), np.full((1, 4), 1e6)])
        agg = NormClip(budget=2.0).aggregate(updates)
        assert np.linalg.norm(agg) <= 2.0 + 1e-9

    def test_adaptive_budget_uses_median_norm(self, rng):
        updates = rng.standard_normal((5, 6))
        assert np.isfinite(NormClip().aggregate(updates)).all()

    def test_noise_is_seeded_and_stateful(self):
        u = np.ones((3, 4))
        a, b = NormClip(noise_std=0.1, seed=9), NormClip(noise_std=0.1, seed=9)
        first_a, first_b = a.aggregate(u), b.aggregate(u)
        assert first_a.tobytes() == first_b.tobytes()
        # the stream advances: a second draw differs from the first
        assert a.aggregate(u).tobytes() != first_a.tobytes()

    def test_rng_state_round_trip(self):
        u = np.ones((3, 4))
        a = NormClip(noise_std=0.1, seed=9)
        a.aggregate(u)
        clone = NormClip(noise_std=0.1, seed=9)
        clone.load_state_dict(a.state_dict())
        assert clone.aggregate(u).tobytes() == a.aggregate(u).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            NormClip(budget=0.0)
        with pytest.raises(ValueError, match="noise_std"):
            NormClip(noise_std=-1.0)


class TestNonFiniteFilteringNewRules:
    @pytest.mark.parametrize("name", NEW_RULES)
    def test_new_rules_stay_finite(self, name, rng):
        updates = rng.standard_normal((6, 8))
        updates[1, 2] = np.nan
        updates[3, 0] = np.inf
        agg = build_aggregator(name)
        assert np.isfinite(agg.aggregate(updates)).all()

    def test_foolsgold_filtered_row_leaves_no_history(self, rng):
        updates = rng.standard_normal((3, 4))
        updates[1, 0] = np.nan
        fg = FoolsGold()
        fg.aggregate(updates, client_ids=[7, 8, 9])
        assert sorted(fg.history) == [7, 9]


class TestServerAggregatorKwarg:
    def test_aggregator_spec_accepted(self, tiny_world):
        model, clients, dataset = tiny_world
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            server = FederatedServer(
                model, clients, dataset, aggregator="foolsgold"
            )
        assert isinstance(server.aggregator, FoolsGold)

    def test_default_is_fedavg(self, tiny_world):
        model, clients, dataset = tiny_world
        server = FederatedServer(model, clients, dataset)
        assert isinstance(server.aggregator, FedAvg)

    def test_retired_aggregate_kwarg_rejected(self, tiny_world):
        model, clients, dataset = tiny_world
        with pytest.raises(TypeError, match="aggregate"):
            FederatedServer(model, clients, dataset, aggregate=fedavg)


@pytest.fixture
def tiny_world():
    from tests.fl.test_resume import make_world

    return make_world()
