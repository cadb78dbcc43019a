"""Experiment scale presets.

The paper trains PyTorch models on a GPU; this reproduction runs a
NumPy substrate on CPU, so every experiment is parameterized by an
:class:`ExperimentScale` controlling dataset size, client count and
round budget.  Three presets:

* ``SMOKE`` — seconds; used by the test suite to exercise code paths.
* ``BENCH`` — a couple of minutes per experiment; used by the
  ``benchmarks/`` harness that regenerates each table/figure.
* ``PAPER`` — closest to the paper's configuration (10 clients,
  3-label non-IID, tens of rounds); for full reruns.

The *shape* conclusions (who wins, by what factor) hold at BENCH scale;
EXPERIMENTS.md records the measured numbers.

The always-on service (``cli serve``, the service examples) runs on a
smaller synthetic world instead: :func:`build_bench_world` builds it
from the :data:`BENCH_PRESETS` entry of the same name.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import Dataset
from ..fl.client import Client, LocalTrainingConfig
from ..nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential

__all__ = [
    "ExperimentScale",
    "SMOKE",
    "BENCH",
    "PAPER",
    "get_scale",
    "BENCH_PRESETS",
    "build_bench_world",
]


class ExperimentScale:
    """Knobs that trade fidelity for wall-clock time.

    Parameters
    ----------
    name:
        Preset label.
    num_samples:
        Total synthetic samples generated per grayscale dataset (the
        CIFAR-like dataset uses ``cifar_samples``).
    test_fraction:
        Held-out share used as the server's validation/test set.
    num_clients, labels_per_client:
        Population size and the K of the K-label non-IID split.
    rounds, local_epochs:
        Federated training budget for benign clients.
    attacker_epochs:
        Attacker's local epochs (attackers train a little harder, as in
        the model-replacement literature).
    gamma:
        Model-replacement amplification coefficient.
    lr, momentum, batch_size:
        Local SGD hyper-parameters (shared, per the paper's
        simplification 2).
    fine_tune_rounds:
        Budget for the defense's fine-tuning stage.
    cifar_samples, cifar_rounds, cifar_width:
        CIFAR-specific reductions (the color CNN is the slow case).
    image_size:
        Image resolution all three synthetic datasets are generated at.
        The paper's native sizes (28 / 28 / 32) are available via the
        generators directly; the experiment presets use 16x16, which cuts
        conv cost ~3x and federated rounds-to-convergence ~2x while
        preserving every attack/defense mechanism (triggers scale with
        the corner layout; DESIGN.md records the reduction).
    """

    def __init__(
        self,
        name: str,
        num_samples: int,
        test_fraction: float,
        num_clients: int,
        labels_per_client: int,
        rounds: int,
        local_epochs: int,
        attacker_epochs: int,
        gamma: float,
        lr: float,
        momentum: float,
        batch_size: int,
        fine_tune_rounds: int,
        cifar_samples: int,
        cifar_rounds: int,
        cifar_width: int,
        image_size: int = 16,
        weight_decay: float = 5e-4,
    ) -> None:
        self.name = name
        self.num_samples = num_samples
        self.test_fraction = test_fraction
        self.num_clients = num_clients
        self.labels_per_client = labels_per_client
        self.rounds = rounds
        self.local_epochs = local_epochs
        self.attacker_epochs = attacker_epochs
        self.gamma = gamma
        self.lr = lr
        self.momentum = momentum
        self.batch_size = batch_size
        self.fine_tune_rounds = fine_tune_rounds
        self.cifar_samples = cifar_samples
        self.cifar_rounds = cifar_rounds
        self.cifar_width = cifar_width
        self.image_size = image_size
        self.weight_decay = weight_decay

    def samples_for(self, dataset: str) -> int:
        return self.cifar_samples if dataset == "cifar" else self.num_samples

    def rounds_for(self, dataset: str) -> int:
        return self.cifar_rounds if dataset == "cifar" else self.rounds

    def __repr__(self) -> str:
        return f"ExperimentScale({self.name!r})"


SMOKE = ExperimentScale(
    name="smoke",
    num_samples=600,
    test_fraction=0.3,
    num_clients=5,
    labels_per_client=3,
    rounds=3,
    local_epochs=1,
    attacker_epochs=2,
    gamma=2.0,
    lr=0.1,
    momentum=0.5,
    batch_size=32,
    fine_tune_rounds=2,
    cifar_samples=300,
    cifar_rounds=2,
    cifar_width=4,
    image_size=16,
)

BENCH = ExperimentScale(
    name="bench",
    num_samples=1800,
    test_fraction=0.25,
    num_clients=10,
    labels_per_client=3,
    rounds=16,
    local_epochs=2,
    attacker_epochs=3,
    gamma=2.0,
    lr=0.1,
    momentum=0.5,
    batch_size=32,
    fine_tune_rounds=5,
    cifar_samples=1200,
    cifar_rounds=8,
    cifar_width=8,
    image_size=16,
)

PAPER = ExperimentScale(
    name="paper",
    num_samples=5000,
    test_fraction=0.2,
    num_clients=10,
    labels_per_client=3,
    rounds=40,
    local_epochs=2,
    attacker_epochs=3,
    gamma=2.0,
    lr=0.1,
    momentum=0.5,
    batch_size=32,
    fine_tune_rounds=10,
    cifar_samples=2500,
    cifar_rounds=15,
    cifar_width=12,
    image_size=16,
)

_PRESETS = {"smoke": SMOKE, "bench": BENCH, "paper": PAPER}


def get_scale(name: str) -> ExperimentScale:
    """Look up a preset by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; available: {sorted(_PRESETS)}"
        ) from None


#: the synthetic service world per scale: an 8-client federation of
#: random single-channel images over a two-conv network
BENCH_PRESETS = {
    "smoke": dict(
        num_clients=8,
        samples_per_client=30,
        image_size=8,
        num_classes=4,
        conv_width=4,
        local_epochs=1,
        batch_size=16,
        rounds=1,
    ),
    "bench": dict(
        num_clients=8,
        samples_per_client=200,
        image_size=16,
        num_classes=8,
        conv_width=8,
        local_epochs=2,
        batch_size=32,
        rounds=2,
    ),
}


def build_bench_world(scale: str, seed: int = 5):
    """A fresh, fully seeded ``(model, clients, dataset)`` service world."""
    preset = BENCH_PRESETS[scale]
    size = preset["image_size"]
    classes = preset["num_classes"]
    total = preset["num_clients"] * preset["samples_per_client"]

    data_rng = np.random.default_rng(seed)
    images = data_rng.random((total, 1, size, size))
    labels = np.tile(np.arange(classes), total // classes + 1)[:total]
    dataset = Dataset(images, labels)

    config = LocalTrainingConfig(
        lr=0.05,
        momentum=0.9,
        batch_size=preset["batch_size"],
        local_epochs=preset["local_epochs"],
    )
    chunks = np.array_split(np.arange(total), preset["num_clients"])
    clients = [
        Client(i, dataset.subset(chunk), config, np.random.default_rng(100 + i))
        for i, chunk in enumerate(chunks)
    ]

    width = preset["conv_width"]
    model_rng = np.random.default_rng(seed + 1)
    model = Sequential(
        Conv2d(1, width, kernel_size=3, padding=1, rng=model_rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(width, 2 * width, kernel_size=3, padding=1, rng=model_rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(2 * width * (size // 4) ** 2, classes, rng=model_rng),
    )
    return model, clients, dataset
