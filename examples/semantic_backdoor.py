"""Semantic backdoor: a rare natural feature as the trigger.

The paper's related work (§II) discusses Bagdasaryan et al.'s semantic
backdoor — "cars with racing stripes are birds" — where the attacker
never modifies inputs at inference time. This example trains that
attack centrally on the synthetic digits (the stripe across the glyph
is the rare feature), evaluates it, and then runs the post-training
defense stages against it.

Usage::

    python examples/semantic_backdoor.py [--scale smoke|bench|paper]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import nn
from repro.attacks.semantic import (
    SemanticFeature,
    poison_with_feature,
    semantic_backdoor_eval_set,
)
from repro.baselines.fine_pruning import centralized_fine_pruning
from repro.data.dataset import DataLoader, train_test_split
from repro.data.synthetic import synthetic_mnist
from repro.defense.adjust_weights import adjust_extreme_weights
from repro.eval import percent
from repro.eval.metrics import test_accuracy
from repro.experiments import get_scale


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=["smoke", "bench", "paper"])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    scale = get_scale(args.scale)
    rng = np.random.default_rng(args.seed)

    data = synthetic_mnist(scale.num_samples, seed=args.seed, image_size=scale.image_size)
    train, test = train_test_split(data, scale.test_fraction, rng)
    feature = SemanticFeature()
    victim, attack = 9, 1
    poisoned = poison_with_feature(train, feature, victim, attack, rng=rng)

    model = nn.zoo.mnist_cnn(
        np.random.default_rng(args.seed + 1), image_size=scale.image_size
    )
    loss_fn = nn.CrossEntropyLoss()
    optimizer = nn.SGD(model.parameters(), lr=scale.lr, momentum=scale.momentum)
    loader = DataLoader(poisoned, batch_size=scale.batch_size, shuffle=True, rng=rng)
    epochs = max(4, scale.rounds // 2)
    for _ in range(epochs):
        for images, labels in loader:
            loss_fn(model(images), labels)
            optimizer.zero_grad()
            model.backward(loss_fn.backward(), input_grad=False)
            optimizer.step()

    eval_set = semantic_backdoor_eval_set(test, feature, victim, attack)

    def report(stage: str) -> None:
        ta = test_accuracy(model, test)
        asr = test_accuracy(model, eval_set)  # accuracy on attack labels
        print(f"{stage:32s} TA={percent(ta)}%  semantic-ASR={percent(asr)}%")

    report("after poisoned training")

    centralized_fine_pruning(model, test, fine_tune_epochs=1, rng=rng)
    report("after centralized fine-pruning")

    adjust_extreme_weights(model, lambda m: test_accuracy(m, test))
    report("after adjusting extreme weights")


if __name__ == "__main__":
    main()
