"""Centralized Fine-Pruning baseline (Liu et al., RAID 2018).

The defense the paper generalizes to the federated setting: prune the
channels *least active on clean data*, then fine-tune, both performed
centrally with a clean dataset the defender holds.  In federated
learning the server has no clean client data, so — as with the Neural
Cleanse comparison — the server's validation/test set stands in.

Keeping this baseline lets the experiments quantify what the federated
protocol (RAP/MVP reports instead of raw server-side activations) costs
or gains relative to the centralized original.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import DataLoader, Dataset
from ..defense.activation import mean_channel_activations
from ..defense.pruning import PruningResult, prune_by_sequence
from ..defense.ranking import local_ranking
from ..eval.metrics import test_accuracy
from ..nn.layers import Conv2d, Linear, Sequential
from ..nn.losses import CrossEntropyLoss
from ..nn.optim import SGD

__all__ = ["centralized_fine_pruning"]


def centralized_fine_pruning(
    model: Sequential,
    clean_data: Dataset,
    layer: Conv2d | Linear | None = None,
    accuracy_drop_threshold: float = 0.01,
    fine_tune_epochs: int = 2,
    lr: float = 0.01,
    batch_size: int = 32,
    rng: np.random.Generator | None = None,
) -> PruningResult:
    """Prune dormant channels by clean-data activation, then fine-tune.

    Parameters
    ----------
    model:
        The suspect model; modified in place.
    clean_data:
        The defender's clean dataset (server validation/test set in the
        federated scenario).  Used for both the activation profile and
        the stopping-accuracy oracle.
    layer:
        Pruning target; defaults to the last conv layer.
    accuracy_drop_threshold:
        Stop pruning before clean accuracy drops more than this.
    fine_tune_epochs, lr, batch_size:
        Central fine-tuning schedule after pruning.

    Returns the pruning result (the fine-tune happens after, in place).
    """
    if layer is None:
        layer = model.last_conv()
    rng = rng or np.random.default_rng()

    activations = mean_channel_activations(model, layer, clean_data)
    # least-active first: reverse of the decreasing-activation ranking
    prune_order = local_ranking(activations)[::-1]

    result = prune_by_sequence(
        model,
        layer,
        prune_order,
        lambda m: test_accuracy(m, clean_data),
        accuracy_drop_threshold=accuracy_drop_threshold,
    )

    loss_fn = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9)
    model.train()
    loader = DataLoader(clean_data, batch_size=batch_size, shuffle=True, rng=rng)
    for _ in range(fine_tune_epochs):
        for images, labels in loader:
            loss_fn(model(images), labels)
            optimizer.zero_grad()
            model.backward(loss_fn.backward(), input_grad=False)
            optimizer.step()
    model.eval()
    for conv in model.conv_layers():
        conv.apply_mask()
    return result
