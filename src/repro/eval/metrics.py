"""Evaluation metrics: test accuracy and attack success rate.

:func:`test_accuracy` is the reference: one full forward pass over the
dataset per call.  :class:`AccuracyEvaluator` gives the same float for
repeated evaluations on one fixed dataset while skipping the work that
cannot have changed since its previous call (see its docstring).
"""

from __future__ import annotations

import numpy as np

from ..attacks.poison import BackdoorTask, backdoor_eval_set
from ..data.dataset import DataLoader, Dataset
from ..nn.layers import Conv2d, Linear, Sequential
from ..nn.module import Module, Parameter

__all__ = ["test_accuracy", "attack_success_rate", "predict", "AccuracyEvaluator"]


def predict(
    model: Sequential, images: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """Predicted class labels, batched to bound memory."""
    was_training = model.training
    model.eval()
    try:
        predictions = []
        for start in range(0, images.shape[0], batch_size):
            logits = model(images[start : start + batch_size])
            predictions.append(logits.argmax(axis=1))
        return np.concatenate(predictions) if predictions else np.zeros(0, dtype=int)
    finally:
        if was_training:
            model.train()


def test_accuracy(model: Sequential, dataset: Dataset, batch_size: int = 256) -> float:
    """Fraction of ``dataset`` classified correctly (TA in the paper)."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate accuracy on an empty dataset")
    predictions = predict(model, dataset.images, batch_size)
    return float((predictions == dataset.labels).mean())


def attack_success_rate(
    model: Sequential, task: BackdoorTask, test: Dataset, batch_size: int = 256
) -> float:
    """Fraction of triggered victim-class test images predicted as the
    attack label (AA in the paper)."""
    eval_set = backdoor_eval_set(test, task)
    return test_accuracy(model, eval_set, batch_size)


def _module_print(module: Module) -> tuple:
    """Everything of one module that its eval-mode output depends on.

    Identity and class, then every public attribute that is array or
    scalar state: parameters and plain arrays (``out_mask``, BatchNorm
    running statistics) by dtype, shape and raw bytes, scalars
    (stride, padding, ``training``) by value.  Private attributes are
    backward caches and derived matrices, which a forward rebuilds from
    the public state.
    """
    state = []
    for key, value in vars(module).items():
        if key.startswith("_") or key == "last_activation":
            continue
        if isinstance(value, Parameter):
            value = value.data
        if isinstance(value, np.ndarray):
            state.append((key, value.dtype.str, value.shape, value.tobytes()))
        elif value is None or isinstance(value, (bool, int, float, str)):
            state.append((key, value))
    return id(module), type(module), tuple(state)


def _layer_print(layer: Module) -> tuple:
    return tuple(_module_print(module) for module in layer.modules())


def _cacheable(model) -> bool:
    """A plain :class:`Sequential` whose layers record nothing."""
    return (
        isinstance(model, Sequential)
        and type(model).forward is Sequential.forward
        and not any(module._recording for module in model.modules())
    )


class AccuracyEvaluator:
    """Accuracy on one fixed dataset, recomputing only what changed.

    ``evaluator(model)`` equals ``test_accuracy(model, dataset,
    batch_size)`` bitwise.  The evaluator remembers the last model it
    saw: a fingerprint of each top-level layer (see
    :func:`_module_print`), the accuracy, and the per-batch input of
    every :class:`Conv2d`/:class:`Linear` after the first layer.  A call
    whose fingerprints all match returns the stored accuracy.  Otherwise
    it finds the first changed layer and resumes the forward pass from
    the deepest stored input at or before it, since an input depends
    only on the layers before it, and those did not change.

    Exactness: the batches are :func:`predict`'s slices, the model is in
    eval mode, and each layer is called on the same arrays a full pass
    would give it, so every GEMM sees the same operands and shapes.

    Invalidation compares bytes, never ``Parameter.version`` or buffer
    identity: a write that forgot ``mark_dirty``, a rebind (also one
    that changes the dtype), a flipped mask, a replaced layer or another
    model object all change the fingerprint.  The dataset must not be
    mutated while the evaluator is in use.

    Models that are not a plain :class:`Sequential`, or that have a
    layer recording activations (which a skipped layer would not
    record), are evaluated by :func:`test_accuracy`.

    ``hits``, ``prefix_hits`` and ``misses`` count calls served from the
    stored accuracy, resumed from a stored input, and run in full.
    """

    def __init__(self, dataset: Dataset, batch_size: int = 256) -> None:
        self.dataset = dataset
        self.batch_size = batch_size
        self.hits = 0
        self.prefix_hits = 0
        self.misses = 0
        self._prints: list[tuple] | None = None
        self._inputs: dict[int, list[np.ndarray]] = {}
        self._accuracy = 0.0

    def __call__(self, model: Sequential) -> float:
        if not _cacheable(model):
            return test_accuracy(model, self.dataset, self.batch_size)
        if len(self.dataset) == 0:
            raise ValueError("cannot evaluate accuracy on an empty dataset")
        was_training = model.training
        model.eval()
        try:
            return self._evaluate(model.layers)
        finally:
            if was_training:
                model.train()

    def _evaluate(self, layers: list[Module]) -> float:
        prints = [_layer_print(layer) for layer in layers]
        if prints == self._prints:
            self.hits += 1
            return self._accuracy
        previous = self._prints or []
        changed = next(
            (i for i, (new, old) in enumerate(zip(prints, previous)) if new != old),
            min(len(prints), len(previous)),
        )

        # forget the old model first, so a failing layer leaves no state
        # that could be mistaken for a finished pass
        self._prints = None
        start = max((i for i in self._inputs if i <= changed), default=0)
        inputs = {i: batches for i, batches in self._inputs.items() if i <= start}
        self._inputs = {}
        if start:
            batches = inputs[start]
            self.prefix_hits += 1
        else:
            images, size = self.dataset.images, self.batch_size
            batches = [images[i : i + size] for i in range(0, len(images), size)]
            self.misses += 1
        for i in range(start + 1, len(layers)):
            if isinstance(layers[i], (Conv2d, Linear)):
                inputs[i] = []

        predictions = []
        for x in batches:
            for i in range(start, len(layers)):
                if i > start and i in inputs:
                    inputs[i].append(x)
                x = layers[i](x)
            predictions.append(x.argmax(axis=1))
        accuracy = float((np.concatenate(predictions) == self.dataset.labels).mean())

        self._prints, self._inputs, self._accuracy = prints, inputs, accuracy
        return accuracy
