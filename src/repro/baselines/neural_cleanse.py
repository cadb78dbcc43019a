"""Neural Cleanse baseline (Wang et al., S&P 2019) — the paper's Table IV
comparator.

Neural Cleanse reverse-engineers, for every candidate target label, the
smallest input perturbation (a mask ``m`` and pattern ``p``) that flips
arbitrary inputs to that label:

    x' = (1 - m) * x + m * p
    minimize  CE(model(x'), target) + l1_coef * |m|_1

Labels whose reconstructed-trigger mask norm is an outlier (MAD-based
anomaly index > 2, on the small side) are flagged as backdoored, and the
model is patched by *unlearning*: fine-tuning on data stamped with the
reconstructed trigger but labeled correctly.

Following the paper's comparison protocol (§V-B), the optimization input
source is the server's *test* dataset — client training data is private
and unavailable.  Optimization uses Adam on tanh-reparameterized mask
and pattern variables, with gradients obtained through the framework's
input-gradient path (``model.backward`` returns dLoss/dInput).
"""

from __future__ import annotations

import time

import numpy as np

from ..data.dataset import DataLoader, Dataset
from ..fl.executor import ClientExecutor
from ..nn.layers import Sequential
from ..nn.losses import CrossEntropyLoss
from ..nn.module import Parameter
from ..nn.optim import SGD, Adam
from ..nn.serialization import clone_module, strip_runtime_state
from ..obs.profile import maybe_profile
from ..obs.telemetry import Telemetry, ensure_telemetry

__all__ = [
    "ReconstructedTrigger",
    "reconstruct_trigger",
    "anomaly_indices",
    "detect_backdoor_labels",
    "unlearn_trigger",
    "NeuralCleanse",
]


class ReconstructedTrigger:
    """A reverse-engineered trigger for one candidate target label."""

    def __init__(self, label: int, mask: np.ndarray, pattern: np.ndarray) -> None:
        self.label = label
        self.mask = mask  # (h, w) in [0, 1]
        self.pattern = pattern  # (c, h, w) in [0, 1]

    @property
    def mask_norm(self) -> float:
        """L1 norm of the mask — Neural Cleanse's anomaly statistic."""
        return float(np.abs(self.mask).sum())

    def apply(self, images: np.ndarray) -> np.ndarray:
        """Stamp the reconstructed trigger onto NCHW images."""
        return (1.0 - self.mask) * images + self.mask * self.pattern[None]

    def __repr__(self) -> str:
        return (
            f"ReconstructedTrigger(label={self.label}, "
            f"mask_norm={self.mask_norm:.2f})"
        )


def _tanh_unit(raw: np.ndarray) -> np.ndarray:
    """Map unconstrained values to (0, 1) via tanh."""
    return (np.tanh(raw) + 1.0) / 2.0


def _tanh_unit_grad(raw: np.ndarray) -> np.ndarray:
    """d/d raw of :func:`_tanh_unit`."""
    return (1.0 - np.tanh(raw) ** 2) / 2.0


def reconstruct_trigger(
    model: Sequential,
    dataset: Dataset,
    target_label: int,
    steps: int = 100,
    lr: float = 0.1,
    l1_coef: float = 0.01,
    batch_size: int = 64,
    rng: np.random.Generator | None = None,
) -> ReconstructedTrigger:
    """Optimize a (mask, pattern) pair driving ``dataset`` to ``target_label``.

    Runs ``steps`` Adam steps, one mini-batch per step (cycling through
    the dataset).  The model's own parameters are left untouched: they
    are frozen (``requires_grad`` False) for the loop, so backward
    computes only the input gradient, and their gradients stay zero.
    """
    if len(dataset) == 0:
        raise ValueError("need data to reconstruct a trigger")
    rng = rng or np.random.default_rng()
    channels, height, width = dataset.images.shape[1:]

    raw_mask = Parameter(rng.normal(-2.0, 0.1, size=(height, width)), "nc.mask")
    raw_pattern = Parameter(
        rng.normal(0.0, 0.1, size=(channels, height, width)), "nc.pattern"
    )
    optimizer = Adam([raw_mask, raw_pattern], lr=lr)
    loss_fn = CrossEntropyLoss()

    params = model.parameters()
    frozen = [param.requires_grad for param in params]
    model.zero_grad()
    was_training = model.training
    model.eval()
    try:
        for param in params:
            param.requires_grad = False
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, rng=rng)
        batches = iter(loader)
        for _ in range(steps):
            try:
                images, _ = next(batches)
            except StopIteration:
                batches = iter(loader)
                images, _ = next(batches)

            mask = _tanh_unit(raw_mask.data)  # (h, w)
            pattern = _tanh_unit(raw_pattern.data)  # (c, h, w)
            stamped = (1.0 - mask) * images + mask * pattern[None]
            targets = np.full(images.shape[0], target_label, dtype=np.int64)

            loss_fn(model(stamped), targets)
            grad_input = model.backward(loss_fn.backward())  # (n, c, h, w)

            # chain rule through the stamping equation
            grad_pattern = (grad_input * mask).sum(axis=0)
            grad_mask = (grad_input * (pattern[None] - images)).sum(axis=(0, 1))
            # L1 sparsity on the mask
            grad_mask += l1_coef * np.sign(mask)

            optimizer.zero_grad()
            raw_mask.grad[...] = grad_mask * _tanh_unit_grad(raw_mask.data)
            raw_pattern.grad[...] = grad_pattern * _tanh_unit_grad(raw_pattern.data)
            optimizer.step()
    finally:
        for param, requires_grad in zip(params, frozen):
            param.requires_grad = requires_grad
        if was_training:
            model.train()

    return ReconstructedTrigger(
        target_label, _tanh_unit(raw_mask.data), _tanh_unit(raw_pattern.data)
    )


def anomaly_indices(mask_norms: np.ndarray) -> np.ndarray:
    """MAD-based anomaly index per label (Neural Cleanse eq. 4).

    ``index_i = |norm_i - median| / (1.4826 * MAD)``; indices are signed
    negative when the norm is *below* the median (the suspicious side —
    backdoor triggers are unusually small).
    """
    mask_norms = np.asarray(mask_norms, dtype=np.float64)
    median = np.median(mask_norms)
    mad = np.median(np.abs(mask_norms - median))
    scale = 1.4826 * mad
    if scale < 1e-12:
        return np.zeros_like(mask_norms)
    return (mask_norms - median) / scale


def detect_backdoor_labels(
    triggers: list[ReconstructedTrigger], threshold: float = 2.0
) -> list[int]:
    """Labels whose reconstructed trigger is anomalously small."""
    norms = np.array([t.mask_norm for t in triggers])
    indices = anomaly_indices(norms)
    return [t.label for t, idx in zip(triggers, indices) if idx < -threshold]


def unlearn_trigger(
    model: Sequential,
    dataset: Dataset,
    trigger: ReconstructedTrigger,
    stamp_fraction: float = 0.2,
    epochs: int = 2,
    lr: float = 0.01,
    batch_size: int = 32,
    rng: np.random.Generator | None = None,
) -> None:
    """Neural Cleanse's mitigation: fine-tune with correctly-labeled
    trigger-stamped samples so the model unlearns the shortcut.

    A ``stamp_fraction`` share of the dataset is stamped with the
    reconstructed trigger while *keeping true labels*; the model is then
    fine-tuned on the mixture.
    """
    if not 0.0 < stamp_fraction <= 1.0:
        raise ValueError(f"stamp_fraction must be in (0, 1], got {stamp_fraction}")
    rng = rng or np.random.default_rng()

    images = dataset.images.copy()
    num_stamped = max(1, int(round(len(dataset) * stamp_fraction)))
    stamped_idx = rng.choice(len(dataset), size=num_stamped, replace=False)
    images[stamped_idx] = trigger.apply(images[stamped_idx])
    mixture = Dataset(images, dataset.labels.copy())

    loss_fn = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9)
    model.train()
    loader = DataLoader(mixture, batch_size=batch_size, shuffle=True, rng=rng)
    for _ in range(epochs):
        for batch_images, batch_labels in loader:
            loss_fn(model(batch_images), batch_labels)
            optimizer.zero_grad()
            model.backward(loss_fn.backward(), input_grad=False)
            optimizer.step()
    model.eval()


def _reconstruct_task(task) -> tuple[ReconstructedTrigger, float]:
    """One per-label reconstruction (module-level so process pools can
    pickle it).

    Returns ``(trigger, seconds)`` — the duration is measured inside the
    worker with ``perf_counter`` and marshalled home so the coordinator
    can record a deterministic-order telemetry span for it.
    """
    model, dataset, label, steps, lr, l1_coef, rng, clone = task
    start = time.perf_counter()
    if clone:
        model = clone_module(model)
    trigger = reconstruct_trigger(
        model, dataset, label, steps=steps, lr=lr, l1_coef=l1_coef, rng=rng
    )
    return trigger, time.perf_counter() - start


class NeuralCleanse:
    """End-to-end Neural Cleanse defense: detect, then unlearn.

    Parameters mirror the paper's comparison setup: optimization over
    the test dataset, Lasso (L1) regularization, a few hundred steps,
    and the best-result selection over a learning-rate grid is left to
    the caller (Table IV sweeps 0.1–0.5).

    ``executor`` (see :mod:`repro.fl.executor`) parallelizes the
    per-label trigger reconstructions — the dominant cost, one
    independent optimization per class.  Each label then draws from its
    own child generator (spawned from ``rng`` on the coordinator, in
    label order), so results are identical across executors but differ
    from the ``executor=None`` path, which keeps the historical behaviour
    of threading one shared generator through all labels sequentially.
    """

    def __init__(
        self,
        steps: int = 100,
        lr: float = 0.1,
        l1_coef: float = 0.01,
        anomaly_threshold: float = 2.0,
        unlearn_epochs: int = 2,
        rng: np.random.Generator | None = None,
        executor: ClientExecutor | None = None,
        telemetry: Telemetry | None = None,
        profile: bool = False,
    ) -> None:
        self.steps = steps
        self.lr = lr
        self.l1_coef = l1_coef
        self.anomaly_threshold = anomaly_threshold
        self.unlearn_epochs = unlearn_epochs
        self.rng = rng or np.random.default_rng()
        self.executor = executor
        self.telemetry = ensure_telemetry(telemetry)
        self.profile = bool(profile)

    def reconstruct_all(
        self, model: Sequential, dataset: Dataset, num_classes: int
    ) -> list[ReconstructedTrigger]:
        """Reverse-engineer a candidate trigger for every label.

        Telemetry: one ``nc.label`` span per label (attrs: label,
        mask_norm), recorded in label order regardless of executor, all
        nested inside one ``nc.reconstruct_all`` span.
        """
        tel = self.telemetry
        with tel.span("nc.reconstruct_all", num_classes=num_classes):
            if self.executor is None:
                triggers = []
                for label in range(num_classes):
                    start = time.perf_counter()
                    trigger = reconstruct_trigger(
                        model,
                        dataset,
                        label,
                        steps=self.steps,
                        lr=self.lr,
                        l1_coef=self.l1_coef,
                        rng=self.rng,
                    )
                    tel.record_span(
                        "nc.label",
                        time.perf_counter() - start,
                        label=label,
                        mask_norm=trigger.mask_norm,
                    )
                    triggers.append(trigger)
                return triggers
            children = self.rng.spawn(num_classes)
            strip_runtime_state(model)
            clone = not self.executor.clones_payloads
            tasks = [
                (model, dataset, label, self.steps, self.lr, self.l1_coef,
                 children[label], clone)
                for label in range(num_classes)
            ]
            results = self.executor.map_clients(_reconstruct_task, tasks)
            triggers = []
            for label, (trigger, seconds) in enumerate(results):
                tel.record_span(
                    "nc.label",
                    seconds,
                    label=label,
                    mask_norm=trigger.mask_norm,
                )
                triggers.append(trigger)
            return triggers

    def run(
        self, model: Sequential, dataset: Dataset, num_classes: int
    ) -> list[int]:
        """Detect and mitigate; returns the flagged labels.

        When no label is flagged, the label with the smallest mask norm
        is unlearned anyway — matching the comparison protocol of
        selecting Neural Cleanse's best effort.

        With ``profile=True`` the whole detect+unlearn pass runs under a
        per-layer :class:`~repro.obs.profile.LayerProfiler` (aggregated
        ``profile.*`` spans in the stream; flagged labels and the final
        model are unchanged).
        """
        with maybe_profile(telemetry=self.telemetry, enabled=self.profile):
            return self._run(model, dataset, num_classes)

    def _run(
        self, model: Sequential, dataset: Dataset, num_classes: int
    ) -> list[int]:
        triggers = self.reconstruct_all(model, dataset, num_classes)
        flagged = detect_backdoor_labels(triggers, self.anomaly_threshold)
        fallback = not flagged
        if fallback:
            smallest = min(triggers, key=lambda t: t.mask_norm)
            flagged = [smallest.label]
        by_label = {t.label: t for t in triggers}
        for label in flagged:
            self.telemetry.event(
                "nc.label_flagged",
                label=label,
                mask_norm=by_label[label].mask_norm,
                fallback=fallback,
            )
            with self.telemetry.span("nc.unlearn", label=label):
                unlearn_trigger(
                    model,
                    dataset,
                    by_label[label],
                    epochs=self.unlearn_epochs,
                    rng=self.rng,
                )
        return flagged
