"""Federated clients: benign and malicious.

A client owns a local :class:`~repro.data.dataset.Dataset` and knows how
to (a) run local SGD from a given global parameter vector and report its
delta, (b) profile per-channel activations for the federated pruning
protocol, and (c) answer the server's ranking/vote requests.

The malicious client additionally poisons its local data with a
:class:`~repro.attacks.poison.BackdoorTask`, amplifies its delta with
the model replacement attack, and (optionally) runs the adaptive
defense-phase attacks of §VI-B.
"""

from __future__ import annotations

import numpy as np

from ..attacks.adaptive import (
    SelfLimitedWeights,
    identify_backdoor_channels,
    manipulated_ranking,
    manipulated_votes,
)
from ..attacks.model_replacement import amplify_update
from ..attacks.poison import BackdoorTask, poison_dataset
from ..data.dataset import DataLoader, Dataset
from ..defense.activation import mean_channel_activations
from ..defense.ranking import local_prune_votes, local_ranking
from ..nn.layers import Conv2d, Sequential
from ..nn.losses import CrossEntropyLoss, LayerL2Penalty
from ..nn.optim import SGD

__all__ = [
    "Client",
    "MaliciousClient",
    "LocalTrainingConfig",
    "megabatch_eligible",
]


class LocalTrainingConfig:
    """Hyper-parameters for one client-side local training pass.

    ``weight_decay`` matters beyond regularization here: it shrinks the
    channels the benign task does not use toward zero, which is what
    makes "dormant" neurons a meaningful concept for the federated
    pruning stage (and forces a backdoor that wants a large activation
    through the pooled head to adopt *extreme* weights, the property the
    adjust-weights stage exploits).
    """

    def __init__(
        self,
        lr: float = 0.05,
        momentum: float = 0.9,
        batch_size: int = 32,
        local_epochs: int = 1,
        last_conv_l2: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {local_epochs}")
        self.lr = lr
        self.momentum = momentum
        self.batch_size = batch_size
        self.local_epochs = local_epochs
        self.last_conv_l2 = last_conv_l2
        self.weight_decay = weight_decay


class Client:
    """A benign federated client."""

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        config: LocalTrainingConfig,
        rng: np.random.Generator,
    ) -> None:
        self.client_id = client_id
        self.dataset = dataset
        self.config = config
        self.rng = rng

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def _training_data(self) -> Dataset:
        """The data this client trains on (poisoned for attackers)."""
        return self.dataset

    def local_update(
        self,
        model: Sequential,
        global_params: np.ndarray,
        round_index: int | None = None,
    ) -> np.ndarray:
        """Run local training from ``global_params``; return the delta.

        The shared ``model`` object is used as scratch space: its
        parameters are overwritten on entry, so nothing persists between
        clients.  ``round_index`` lets round-aware clients (the
        malicious one) change behaviour over time; benign clients ignore
        it.

        A non-finite broadcast is refused up front: training from NaN
        parameters would burn the whole local budget to produce a NaN
        delta, so the client reports the corrupt broadcast instead
        (surfacing server-side bugs at their source).
        """
        global_params = np.asarray(global_params)
        if not np.isfinite(global_params).all():
            raise ValueError(
                f"client {self.client_id} received a non-finite global broadcast"
            )
        model.load_flat_parameters(global_params)
        model.train()
        data = self._training_data()
        if len(data) == 0:
            return np.zeros_like(global_params)

        penalty = None
        if self.config.last_conv_l2 > 0:
            penalty = LayerL2Penalty([model.last_conv()], self.config.last_conv_l2)
        loss_fn = CrossEntropyLoss(l2_penalty=penalty)
        optimizer = SGD(
            model.parameters(),
            lr=self.config.lr,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        loader = DataLoader(
            data, batch_size=self.config.batch_size, shuffle=True, rng=self.rng
        )
        for _ in range(self.config.local_epochs):
            for images, labels in loader:
                loss_fn(model(images), labels)
                optimizer.zero_grad()
                model.backward(loss_fn.backward(), input_grad=False)
                self._post_step(model)
                optimizer.step()
        self._post_training(model)
        return model.flat_parameters() - global_params

    def _post_step(self, model: Sequential) -> None:
        """Hook before each optimizer step (noop for benign clients)."""

    def _post_training(self, model: Sequential) -> None:
        """Hook after local training, before the delta is computed."""

    # -- federated pruning protocol ------------------------------------

    def activation_profile(
        self, model: Sequential, layer: Conv2d, batch_size: int = 64
    ) -> np.ndarray:
        """Mean activation per channel of ``layer`` on *clean* local data.

        Benign clients profile their raw local dataset (never the
        poisoned copy — poisoning is invisible to them).
        """
        return mean_channel_activations(model, layer, self.dataset, batch_size)

    def ranking_report(self, model: Sequential, layer: Conv2d) -> np.ndarray:
        """RAP report: channel ids in decreasing-activation order."""
        return local_ranking(self.activation_profile(model, layer))

    def vote_report(
        self, model: Sequential, layer: Conv2d, prune_rate: float
    ) -> np.ndarray:
        """MVP report: 0/1 prune votes for a fraction ``prune_rate``."""
        return local_prune_votes(self.activation_profile(model, layer), prune_rate)

    def accuracy_report(self, model: Sequential) -> float:
        """Local accuracy feedback (used when the server lacks validation
        data); attackers may override this with lies."""
        if len(self.dataset) == 0:
            return 0.0
        logits = model(self.dataset.images)
        return float((logits.argmax(axis=1) == self.dataset.labels).mean())


#: the hooks a subclass may override to change local-training semantics;
#: a client is only megabatch-eligible while ALL of them are the stock
#: ``Client`` implementations (the vectorized wave inlines them)
_MEGABATCH_HOOKS = ("local_update", "_training_data", "_post_step", "_post_training")


def megabatch_eligible(client) -> bool:
    """True when ``client`` trains with the stock benign semantics.

    The megabatch executor replaces :meth:`Client.local_update` with one
    vectorized pass, so it must refuse any client whose *class* overrides
    the training hooks (malicious clients, fault wrappers, test doubles).
    The check is on method identity at the type level — an override that
    merely delegates still disqualifies, which errs on the side of the
    bitwise-faithful serial path.
    """
    if type(client) is not Client and not isinstance(client, Client):
        return False
    for name in _MEGABATCH_HOOKS:
        if getattr(type(client), name) is not getattr(Client, name):
            return False
    return isinstance(getattr(client, "rng", None), np.random.Generator)


class MaliciousClient(Client):
    """A backdoor attacker.

    Parameters
    ----------
    task:
        The backdoor objective (trigger + victim/attack labels).
    gamma:
        Model-replacement amplification coefficient (1 = no scaling).
    poison_fraction:
        Share of the local victim-class samples duplicated as poison.
    rank_attack:
        Enable Attack 1 — manipulate ranking / vote reports to protect
        backdoor channels.
    self_limit_delta:
        When set, clip own extreme last-conv weights at mu ± delta sigma
        during training (the anti-AW adaptive attack).
    attack_start_round:
        First round in which this client poisons and amplifies.  Before
        it, the client behaves benignly.  Model replacement is most
        effective near convergence, where benign deltas are small and
        cancel (the paper's §III-C assumption); delaying the attack is
        how that regime is reached.
    """

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        config: LocalTrainingConfig,
        rng: np.random.Generator,
        task: BackdoorTask,
        gamma: float = 1.0,
        poison_fraction: float = 1.0,
        rank_attack: bool = False,
        self_limit_delta: float | None = None,
        attack_start_round: int = 0,
    ) -> None:
        super().__init__(client_id, dataset, config, rng)
        self.task = task
        self.gamma = gamma
        self.poison_fraction = poison_fraction
        self.rank_attack = rank_attack
        self.attack_start_round = attack_start_round
        self._self_limiter = (
            SelfLimitedWeights(self_limit_delta) if self_limit_delta else None
        )
        self._poisoned = poison_dataset(
            dataset, task, poison_fraction=poison_fraction, rng=rng
        )
        self._attacking_now = True

    def _training_data(self) -> Dataset:
        return self._poisoned if self._attacking_now else self.dataset

    def _post_training(self, model: Sequential) -> None:
        if self._attacking_now and self._self_limiter is not None:
            self._self_limiter.clip_model(model)

    def local_update(
        self,
        model: Sequential,
        global_params: np.ndarray,
        round_index: int | None = None,
    ) -> np.ndarray:
        self._attacking_now = (
            round_index is None or round_index >= self.attack_start_round
        )
        delta = super().local_update(model, global_params, round_index)
        if not self._attacking_now:
            return delta
        return amplify_update(delta, self.gamma)

    # -- defense-phase manipulation (Attack 1) --------------------------

    def _protected_channels(self, model: Sequential, layer: Conv2d) -> np.ndarray:
        """Channels the attacker shields: those the trigger excites most."""
        clean = mean_channel_activations(model, layer, self.dataset, batch_size=64)
        triggered_images = self.task.trigger.apply(self.dataset.images)
        triggered = mean_channel_activations(
            model, layer, Dataset(triggered_images, self.dataset.labels), batch_size=64
        )
        top_k = max(1, clean.size // 10)
        return identify_backdoor_channels(clean, triggered, top_k)

    def ranking_report(self, model: Sequential, layer: Conv2d) -> np.ndarray:
        honest = super().ranking_report(model, layer)
        if not self.rank_attack:
            return honest
        return manipulated_ranking(honest, self._protected_channels(model, layer))

    def vote_report(
        self, model: Sequential, layer: Conv2d, prune_rate: float
    ) -> np.ndarray:
        honest = super().vote_report(model, layer, prune_rate)
        if not self.rank_attack:
            return honest
        return manipulated_votes(honest, self._protected_channels(model, layer))

    def accuracy_report(self, model: Sequential) -> float:
        """Attackers inflate accuracy feedback to keep backdoors alive."""
        return 1.0
