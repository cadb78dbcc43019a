"""Aggregation rules over flat client update vectors.

The paper's defense runs *after* training, so its training loop uses the
simplified FedAvg of §III-A: ``w_{t+1} = w_t + mean(deltas)``.  The
byzantine-robust rules the paper cites as failed backdoor defenses —
Krum, Multi-Krum, coordinate-wise trimmed mean, coordinate-wise median,
and Bulyan — are implemented as baselines so experiments can confirm
that observation on this substrate, joined by the history-dependent
defenses the robustness matrix compares against: FoolsGold, the RFA
geometric median, robust learning rate, and norm clipping.

Two API layers coexist:

* The original bare functions (:func:`fedavg`, :func:`krum`, ...) map
  ``(num_clients, dim)`` update matrices to a single ``(dim,)``
  aggregated update.  They are stateless and unchanged.
* The :class:`Aggregator` protocol adds per-client identity, round
  numbers, telemetry, and cross-round state (``state_dict`` /
  ``load_state_dict``) on top, with a decorator registry and
  :func:`build_aggregator` to construct rules from ``name`` /
  ``"name:param=value"`` spec strings.  Every registered rule is also
  a plain callable, so an :class:`Aggregator` instance drops into any
  slot that used to take a bare function.

Degradation semantics: rows containing NaN/Inf are filtered out before
any rule runs — a single poisoned coordinate would otherwise propagate
through a mean (or a Krum distance) into every coordinate of the global
model.  Aggregating is refused (``ValueError``) only when *no* finite
row remains.  With all-finite inputs the filter is a no-op and every
rule returns exactly what it did before.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..persist.state import rng_state_from_jsonable, rng_state_to_jsonable
from ..specs import format_spec, parse_spec

__all__ = [
    "finite_rows",
    "fedavg",
    "weighted_fedavg",
    "coordinate_median",
    "trimmed_mean",
    "krum",
    "multi_krum",
    "bulyan",
    "median_norm_budget",
    "clip_updates",
    "Aggregator",
    "FunctionAggregator",
    "register_aggregator",
    "build_aggregator",
    "aggregator_names",
    "FedAvg",
    "Median",
    "TrimmedMean",
    "Krum",
    "MultiKrum",
    "Bulyan",
    "FoolsGold",
    "GeometricMedian",
    "RobustLR",
    "NormClip",
]


def finite_rows(updates: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows containing only finite values."""
    return np.isfinite(updates).all(axis=1)


def _validated(
    updates: np.ndarray,
    weights: np.ndarray | None = None,
    client_ids: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
    """The one shared validation/filter path every rule goes through.

    Checks the matrix shape, aligns optional per-row weights and client
    ids with it, and drops non-finite rows (with their weights and ids).
    Returns ``(updates, weights, client_ids)`` where ``client_ids``
    defaults to row positions when the caller supplied none.
    """
    updates = np.asarray(updates, dtype=np.float64)
    if updates.ndim != 2:
        raise ValueError(
            f"updates must be a (num_clients, dim) matrix, got {updates.shape}"
        )
    if updates.shape[0] == 0:
        raise ValueError("need at least one client update")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (updates.shape[0],):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{updates.shape[0]} clients"
            )
        if (weights < 0).any() or not np.isfinite(weights).all():
            raise ValueError("weights must be finite and non-negative")
    if client_ids is None:
        ids = list(range(updates.shape[0]))
    else:
        ids = [int(c) for c in client_ids]
        if len(ids) != updates.shape[0]:
            raise ValueError(
                f"{len(ids)} client ids do not match "
                f"{updates.shape[0]} updates"
            )
    finite = finite_rows(updates)
    if not finite.all():
        if not finite.any():
            raise ValueError("every client update contains non-finite values")
        updates = updates[finite]
        if weights is not None:
            weights = weights[finite]
        ids = [cid for cid, keep in zip(ids, finite) if keep]
    if weights is not None and weights.sum() <= 0:
        raise ValueError("weights must have positive sum")
    return updates, weights, ids


def _as_update_matrix(updates: np.ndarray) -> np.ndarray:
    return _validated(updates)[0]


def _mean(updates: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Weighted mean when weights are given, the plain mean otherwise."""
    if weights is None:
        return updates.mean(axis=0)
    return (weights[:, None] * updates).sum(axis=0) / weights.sum()


def fedavg(updates: np.ndarray) -> np.ndarray:
    """Unweighted mean of client deltas (paper's simplified rule).

    Non-finite rows are filtered first: one NaN coordinate in one
    client's delta would otherwise turn that coordinate of the global
    model into NaN for the rest of training.
    """
    return _as_update_matrix(updates).mean(axis=0)


def weighted_fedavg(updates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sample-count-weighted FedAvg (McMahan et al.'s original rule).

    Weights align with the *submitted* rows; when a non-finite row is
    filtered, its weight is dropped with it.
    """
    updates, weights, _ = _validated(updates, weights)
    return _mean(updates, weights)


def coordinate_median(updates: np.ndarray) -> np.ndarray:
    """Coordinate-wise median (Yin et al.)."""
    return np.median(_as_update_matrix(updates), axis=0)


def trimmed_mean(updates: np.ndarray, trim_ratio: float = 0.1) -> np.ndarray:
    """Coordinate-wise trimmed mean (Yin et al.).

    Drops the ``trim_ratio`` fraction of smallest and largest values in
    every coordinate before averaging.
    """
    updates = _as_update_matrix(updates)
    if not 0.0 <= trim_ratio < 0.5:
        raise ValueError(f"trim_ratio must be in [0, 0.5), got {trim_ratio}")
    n = updates.shape[0]
    k = int(np.floor(trim_ratio * n))
    if 2 * k >= n:
        raise ValueError(f"trimming {k} from each side empties {n} updates")
    ordered = np.sort(updates, axis=0)
    return ordered[k : n - k].mean(axis=0)


def _krum_scores(updates: np.ndarray, num_byzantine: int) -> np.ndarray:
    """Krum score per client: sum of its n - f - 2 smallest peer distances."""
    n = updates.shape[0]
    closest = n - num_byzantine - 2
    if closest < 1:
        raise ValueError(
            f"krum needs n - f - 2 >= 1; got n={n}, f={num_byzantine}"
        )
    sq_norms = (updates**2).sum(axis=1)
    distances = sq_norms[:, None] + sq_norms[None, :] - 2.0 * updates @ updates.T
    np.fill_diagonal(distances, np.inf)
    distances = np.maximum(distances, 0.0)
    nearest = np.sort(distances, axis=1)[:, :closest]
    return nearest.sum(axis=1)


def krum(updates: np.ndarray, num_byzantine: int = 0) -> np.ndarray:
    """Krum (Blanchard et al.): return the most centrally-located update."""
    updates = _as_update_matrix(updates)
    scores = _krum_scores(updates, num_byzantine)
    return updates[int(np.argmin(scores))].copy()


def _multi_krum_select(
    updates: np.ndarray, num_byzantine: int, num_selected: int | None
) -> np.ndarray:
    """Row indices of the m lowest-score updates, in score order."""
    n = updates.shape[0]
    if num_selected is None:
        num_selected = max(1, n - num_byzantine)
    if not 1 <= num_selected <= n:
        raise ValueError(f"num_selected must be in [1, {n}], got {num_selected}")
    scores = _krum_scores(updates, num_byzantine)
    return np.argsort(scores)[:num_selected]


def multi_krum(
    updates: np.ndarray, num_byzantine: int = 0, num_selected: int | None = None
) -> np.ndarray:
    """Multi-Krum: average the m lowest-score updates."""
    updates = _as_update_matrix(updates)
    chosen = _multi_krum_select(updates, num_byzantine, num_selected)
    return updates[chosen].mean(axis=0)


def _bulyan_select(updates: np.ndarray, num_byzantine: int) -> list[int]:
    """The ``n - 2f`` row indices Bulyan's iterated Krum selection keeps."""
    n = updates.shape[0]
    theta = n - 2 * num_byzantine
    if theta < 1:
        raise ValueError(f"bulyan needs n - 2f >= 1; got n={n}, f={num_byzantine}")
    remaining = list(range(n))
    selected: list[int] = []
    while len(selected) < theta:
        subset = updates[remaining]
        if len(remaining) - num_byzantine - 2 >= 1:
            scores = _krum_scores(subset, num_byzantine)
            winner_pos = int(np.argmin(scores))
        else:  # committee too small for Krum scoring; take closest to mean
            center = subset.mean(axis=0)
            winner_pos = int(np.argmin(((subset - center) ** 2).sum(axis=1)))
        selected.append(remaining.pop(winner_pos))
    return selected


def _bulyan_mix(chosen: np.ndarray, num_byzantine: int) -> np.ndarray:
    """Bulyan's coordinate-wise trimmed aggregation of the committee."""
    theta = chosen.shape[0]
    beta = max(1, theta - 2 * num_byzantine)
    median = np.median(chosen, axis=0)
    order = np.argsort(np.abs(chosen - median), axis=0)[:beta]
    return np.take_along_axis(chosen, order, axis=0).mean(axis=0)


def bulyan(updates: np.ndarray, num_byzantine: int = 0) -> np.ndarray:
    """Bulyan (Mhamdi et al.): Multi-Krum selection + trimmed aggregation.

    Repeatedly selects the Krum winner until ``n - 2f`` updates are
    chosen, then aggregates each coordinate by averaging the ``theta - 2f``
    values closest to the coordinate median (theta = #selected).  For
    small committees the closest-count is floored at 1.
    """
    updates = _as_update_matrix(updates)
    selected = _bulyan_select(updates, num_byzantine)
    return _bulyan_mix(updates[selected], num_byzantine)


# -- norm clipping helpers (re-exported by repro.fl.clipping) -----------


def median_norm_budget(updates: np.ndarray) -> float:
    """A robust clipping budget: the median client-update L2 norm."""
    updates = np.asarray(updates, dtype=np.float64)
    if updates.ndim != 2 or updates.shape[0] == 0:
        raise ValueError(f"updates must be a nonempty matrix, got {updates.shape}")
    return float(np.median(np.linalg.norm(updates, axis=1)))


def clip_updates(updates: np.ndarray, budget: float) -> np.ndarray:
    """Scale every row with L2 norm above ``budget`` down onto the ball."""
    updates = np.asarray(updates, dtype=np.float64)
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    norms = np.linalg.norm(updates, axis=1, keepdims=True)
    scales = np.minimum(1.0, budget / np.maximum(norms, 1e-12))
    return updates * scales


# -- the Aggregator protocol and registry -------------------------------


def _emit(telemetry, name: str, **attrs) -> None:
    if telemetry is not None:
        telemetry.event(name, **attrs)


class Aggregator:
    """One aggregation rule, possibly with cross-round state.

    The server calls :meth:`aggregate` with the stacked update matrix
    plus keyword context — per-row sample weights, the accepted clients'
    ids (aligned with the rows), the round number, and the telemetry
    hub.  Stateless rules ignore what they don't need; history-dependent
    rules (FoolsGold) key their memory by client id and expose it via
    :meth:`state_dict` / :meth:`load_state_dict` so checkpoint resume is
    byte-identical to an uninterrupted run.

    Instances are also plain callables over the matrix, so an
    ``Aggregator`` drops into any slot that used to take a bare
    function.
    """

    #: registry name; set by :func:`register_aggregator`
    name = "aggregator"

    def aggregate(
        self,
        updates: np.ndarray,
        *,
        weights: np.ndarray | None = None,
        client_ids: Sequence[int] | None = None,
        round_index: int | None = None,
        telemetry=None,
    ) -> np.ndarray:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Cross-round state as snapshot types (ndarrays + JSON scalars)."""
        return {}

    def load_state_dict(self, state: dict | None) -> None:
        """Restore :meth:`state_dict` output (stateless rules accept none)."""
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless but was given state "
                f"keys {sorted(state)}"
            )

    def __call__(self, updates: np.ndarray, **kwargs) -> np.ndarray:
        return self.aggregate(updates, **kwargs)

    def spec(self) -> str:
        """The canonical spec string rebuilding this instance."""
        params = {
            key: value
            for key, value in sorted(vars(self).items())
            if not key.startswith("_")
            and isinstance(value, (int, float, str, bool))
        }
        return format_spec(self.name, params)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"


class FunctionAggregator(Aggregator):
    """Adapter giving a bare ``matrix -> vector`` callable the protocol.

    The wrapped function is invoked with the positional matrix only,
    no keyword context, so behaviour and the canonical telemetry stream
    are bit-identical to calling the function directly.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]) -> None:
        if not callable(fn):
            raise TypeError(f"expected a callable, got {type(fn).__name__}")
        self.fn = fn
        self.name = getattr(fn, "__name__", type(fn).__name__)

    def aggregate(
        self,
        updates: np.ndarray,
        *,
        weights=None,
        client_ids=None,
        round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        return self.fn(updates)

    def spec(self) -> str:
        return self.name


_AGGREGATORS: dict[str, type] = {}


def register_aggregator(name: str):
    """Class decorator adding an :class:`Aggregator` to the registry."""

    def decorate(cls):
        if name in _AGGREGATORS:
            raise ValueError(f"aggregator {name!r} is already registered")
        cls.name = name
        _AGGREGATORS[name] = cls
        return cls

    return decorate


def aggregator_names() -> list[str]:
    """Registered rule names, sorted."""
    return sorted(_AGGREGATORS)


def build_aggregator(spec) -> Aggregator:
    """Construct an aggregation rule from a flexible spec.

    Accepts an :class:`Aggregator` instance (returned as-is), any bare
    callable (wrapped in :class:`FunctionAggregator`), a registered rule
    name (``"fedavg"``), or a parameterized spec string
    (``"trimmed_mean:trim_ratio=0.2"``).  Unknown names and parameters
    the rule's constructor rejects raise ``ValueError``.
    """
    if isinstance(spec, Aggregator):
        return spec
    if callable(spec):
        return FunctionAggregator(spec)
    name, params = parse_spec(spec)
    cls = _AGGREGATORS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown aggregator {name!r}; "
            f"available: {', '.join(aggregator_names())}"
        )
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(
            f"bad parameters for aggregator {name!r}: {exc}"
        ) from None


@register_aggregator("fedavg")
class FedAvg(Aggregator):
    """The paper's unweighted mean (weighted when weights are given)."""

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        updates, weights, _ = _validated(updates, weights, client_ids)
        return _mean(updates, weights)


@register_aggregator("median")
class Median(Aggregator):
    """Coordinate-wise median (weights are ignored)."""

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        updates, _, _ = _validated(updates, weights, client_ids)
        return np.median(updates, axis=0)


@register_aggregator("trimmed_mean")
class TrimmedMean(Aggregator):
    """Coordinate-wise trimmed mean."""

    def __init__(self, trim_ratio: float = 0.1) -> None:
        if not 0.0 <= trim_ratio < 0.5:
            raise ValueError(f"trim_ratio must be in [0, 0.5), got {trim_ratio}")
        self.trim_ratio = float(trim_ratio)

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        return trimmed_mean(updates, self.trim_ratio)


@register_aggregator("krum")
class Krum(Aggregator):
    """Krum; emits the winning client on ``agg.selection``."""

    def __init__(self, num_byzantine: int = 0) -> None:
        self.num_byzantine = int(num_byzantine)

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        updates, _, ids = _validated(updates, weights, client_ids)
        scores = _krum_scores(updates, self.num_byzantine)
        winner = int(np.argmin(scores))
        _emit(
            telemetry, "agg.selection", rule=self.name, round=round_index,
            selected=[ids[winner]], candidates=len(ids),
        )
        return updates[winner].copy()


@register_aggregator("multi_krum")
class MultiKrum(Aggregator):
    """Multi-Krum; emits the selected committee on ``agg.selection``."""

    def __init__(
        self, num_byzantine: int = 0, num_selected: int | None = None
    ) -> None:
        self.num_byzantine = int(num_byzantine)
        self.num_selected = num_selected

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        updates, _, ids = _validated(updates, weights, client_ids)
        chosen = _multi_krum_select(updates, self.num_byzantine, self.num_selected)
        _emit(
            telemetry, "agg.selection", rule=self.name, round=round_index,
            selected=sorted(ids[int(i)] for i in chosen), candidates=len(ids),
        )
        return updates[chosen].mean(axis=0)


@register_aggregator("bulyan")
class Bulyan(Aggregator):
    """Bulyan; emits the selected committee on ``agg.selection``."""

    def __init__(self, num_byzantine: int = 0) -> None:
        self.num_byzantine = int(num_byzantine)

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        updates, _, ids = _validated(updates, weights, client_ids)
        selected = _bulyan_select(updates, self.num_byzantine)
        _emit(
            telemetry, "agg.selection", rule=self.name, round=round_index,
            selected=sorted(ids[i] for i in selected), candidates=len(ids),
        )
        return _bulyan_mix(updates[selected], self.num_byzantine)


@register_aggregator("foolsgold")
class FoolsGold(Aggregator):
    """FoolsGold (Fung et al.): cosine-similarity history reweighting.

    Sybil attackers that push the same backdoor objective produce
    suspiciously *aligned* update histories; FoolsGold accumulates each
    client's updates across rounds, computes pairwise cosine similarity
    of the aggregates, pardons honest clients that merely resemble a
    more-suspicious peer, and squashes the result through a logit into
    per-client learning weights.  The history is the cross-round state
    that must survive checkpoint resume.
    """

    def __init__(self, epsilon: float = 1e-5) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self.history: dict[int, np.ndarray] = {}

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        updates, _, ids = _validated(updates, weights, client_ids)
        for cid, row in zip(ids, updates):
            previous = self.history.get(cid)
            self.history[cid] = (
                row.copy() if previous is None else previous + row
            )
        aligned = np.stack([self.history[cid] for cid in ids])
        wv = self._learning_weights(aligned)
        _emit(
            telemetry, "agg.weights", rule=self.name, round=round_index,
            clients=list(ids), weights=[float(w) for w in wv],
        )
        total = wv.sum()
        if total <= 0:
            # every client looks sybil-identical: contribute nothing
            # rather than average what the rule just condemned
            return np.zeros(updates.shape[1])
        return (wv[:, None] * updates).sum(axis=0) / total

    def _learning_weights(self, aligned: np.ndarray) -> np.ndarray:
        n = aligned.shape[0]
        if n == 1:
            return np.ones(1)
        norms = np.maximum(np.linalg.norm(aligned, axis=1), self.epsilon)
        unit = aligned / norms[:, None]
        cs = unit @ unit.T
        np.fill_diagonal(cs, -np.inf)
        v = cs.max(axis=1)
        # pardoning: an honest client that merely resembles a more
        # suspicious peer inherits that peer's blame scaled down
        for i in range(n):
            for j in range(n):
                if v[j] > v[i] and v[j] > 0:
                    cs[i, j] *= v[i] / v[j]
        wv = 1.0 - cs.max(axis=1)
        wv = np.clip(wv, 0.0, 1.0)
        top = wv.max()
        if top <= 0:
            return np.zeros(n)
        wv = wv / top
        wv = np.clip(wv, self.epsilon, 0.99)
        wv = np.log(wv / (1.0 - wv)) + 0.5
        return np.clip(wv, 0.0, 1.0)

    def state_dict(self) -> dict:
        return {
            "history": {
                str(cid): self.history[cid].copy()
                for cid in sorted(self.history)
            }
        }

    def load_state_dict(self, state: dict | None) -> None:
        records = (state or {}).get("history", {})
        self.history = {
            int(cid): np.array(row, dtype=np.float64, copy=True)
            for cid, row in records.items()
        }


@register_aggregator("rfa")
class GeometricMedian(Aggregator):
    """RFA (Pillutla et al.): smoothed-Weiszfeld geometric median."""

    def __init__(
        self,
        max_iters: int = 8,
        smoothing: float = 1e-6,
        tolerance: float = 1e-10,
    ) -> None:
        if max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {max_iters}")
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {smoothing}")
        self.max_iters = int(max_iters)
        self.smoothing = float(smoothing)
        self.tolerance = float(tolerance)

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        updates, weights, ids = _validated(updates, weights, client_ids)
        alphas = (
            np.ones(updates.shape[0]) if weights is None else weights
        )
        median = _mean(updates, weights)
        beta = alphas
        for _ in range(self.max_iters):
            distances = np.linalg.norm(updates - median, axis=1)
            beta = alphas / np.maximum(distances, self.smoothing)
            refined = (beta[:, None] * updates).sum(axis=0) / beta.sum()
            shift = float(np.linalg.norm(refined - median))
            median = refined
            if shift <= self.tolerance:
                break
        influence = beta / beta.sum()
        _emit(
            telemetry, "agg.weights", rule=self.name, round=round_index,
            clients=list(ids), weights=[float(w) for w in influence],
        )
        return median


@register_aggregator("robust_lr")
class RobustLR(Aggregator):
    """Robust learning rate (Ozdayi et al.): sign-voting LR flips.

    Each coordinate where too few clients agree on the update's sign
    gets its learning rate flipped to -1, pushing the model *away* from
    the (presumed adversarial) consensus there.  ``threshold`` is the
    required agreement: an int is an absolute vote count, a float in
    (0, 1] a fraction of the voting clients.
    """

    def __init__(self, threshold: int | float = 0.5) -> None:
        if isinstance(threshold, float):
            if not 0.0 < threshold <= 1.0:
                raise ValueError(
                    f"fractional threshold must be in (0, 1], got {threshold}"
                )
        elif threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        updates, weights, ids = _validated(updates, weights, client_ids)
        n = updates.shape[0]
        if isinstance(self.threshold, float):
            needed = max(1, int(np.ceil(self.threshold * n)))
        else:
            needed = min(int(self.threshold), n)
        votes = np.abs(np.sign(updates).sum(axis=0))
        lr = np.where(votes >= needed, 1.0, -1.0)
        flipped = int((lr < 0).sum())
        _emit(
            telemetry, "agg.lr_flips", rule=self.name, round=round_index,
            flipped=flipped, dim=int(updates.shape[1]), threshold=needed,
            voters=len(ids),
        )
        return lr * _mean(updates, weights)


@register_aggregator("norm_clip")
class NormClip(Aggregator):
    """Norm clipping + optional Gaussian noising (the CRFL recipe).

    Clips every client delta onto an L2 ball (``budget=None`` adapts to
    the round's median client norm), averages, and optionally smooths
    the aggregate with seeded Gaussian noise.  The noise generator's
    stream position is checkpoint state, so a resumed run draws exactly
    the noise an uninterrupted run would have.
    """

    def __init__(
        self,
        budget: float | None = None,
        noise_std: float = 0.0,
        seed: int = 0,
    ) -> None:
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        if noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {noise_std}")
        self.budget = None if budget is None else float(budget)
        self.noise_std = float(noise_std)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def aggregate(
        self, updates, *, weights=None, client_ids=None, round_index=None,
        telemetry=None,
    ) -> np.ndarray:
        updates, weights, ids = _validated(updates, weights, client_ids)
        budget = (
            self.budget if self.budget is not None
            else median_norm_budget(updates)
        )
        norms = np.linalg.norm(updates, axis=1)
        clipped = clip_updates(updates, budget)
        _emit(
            telemetry, "agg.clip", rule=self.name, round=round_index,
            budget=float(budget), clipped=int((norms > budget).sum()),
            clients=len(ids),
        )
        result = _mean(clipped, weights)
        if self.noise_std > 0:
            result = result + self._rng.normal(
                0.0, self.noise_std, size=result.shape
            )
        return result

    def state_dict(self) -> dict:
        return {"rng": rng_state_to_jsonable(self._rng)}

    def load_state_dict(self, state: dict | None) -> None:
        if state:
            rng_state_from_jsonable(self._rng, state.get("rng"))
