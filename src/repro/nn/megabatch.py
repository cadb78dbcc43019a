"""Vectorized K-client local training: the megabatch hot path.

:class:`~repro.fl.executor.MegabatchExecutor` runs a wave of K
homogeneous benign clients as *single* batched tensor ops instead of K
Python-level training loops.  There is one training step, not two:
:func:`train_wave` is the serial loop of
:meth:`~repro.fl.client.Client.local_update` — the real
:class:`~repro.nn.losses.CrossEntropyLoss`, :class:`~repro.nn.optim.SGD`
and ``Sequential.backward(input_grad=False)`` — run on one
``clone_module`` copy of the template whose parameters carry a leading
client axis.

**The leading-client-axis contract.**  Every ``Parameter.data`` (and
``.grad``) of the wave model is a ``(K,) + shape`` stack, row ``k``
client ``k``'s copy of the broadcast.  Layer inputs stay the flat
``K*b`` batch, client ``k`` owning rows ``[k*b, (k+1)*b)``:

* :class:`~repro.nn.layers.Conv2d` / :class:`~repro.nn.layers.Linear`
  view their weights as ``(K, out, ·)`` and their im2col columns or
  inputs as ``(K, rows, ·)``, run every GEMM as one
  :func:`numpy.matmul` over that stack, and reduce bias gradients with
  ``sum(axis=1)``.  A serial layer is the ``K = 1`` case of the same
  code.
* Parameter-free layers (ReLU, Tanh, the pools, Flatten) are
  row-independent, so the flat ``K*b`` batch is indistinguishable from
  a bigger serial batch.
* The loss takes ``(K, b, classes)`` logits and divides each client's
  gradient by its own ``b``; SGD and the last-conv L2 penalty are
  elementwise, so they are shape-agnostic.

**The bitwise contract.**  Row ``k`` of the result equals
``clients[k].local_update(clone, global_params)`` bit for bit.  NumPy's
matmul gufunc dispatches one GEMM per leading-axis slice with exactly
the 2-D shapes and strides the serial layer has; a ``K = 1`` stack is
one such slice, so it takes the same BLAS call as the 2-D ``@`` and the
serial path's floats do not move either.  Per-epoch shuffles draw
``rng.permutation(n)`` from each client's own generator, so the
generators end where serial training leaves them.

:class:`~repro.nn.layers.Dropout` is not supported: one stacked layer
cannot tile the per-client mask sequence that K serial clones draw from
copies of the template's generator, so a Dropout model takes the
executor's bitwise serial fallback.

The template model is read-only throughout: weights come from the
broadcast ``global_params`` vector.
"""

from __future__ import annotations

import numpy as np

from .layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tanh,
)
from .losses import CrossEntropyLoss, LayerL2Penalty
from .optim import SGD
from .serialization import clone_module

__all__ = ["supports_megabatch", "train_wave"]

#: layers whose forward/backward is correct on a stacked wave model
_WAVE_LAYERS = (Conv2d, Linear, ReLU, Tanh, MaxPool2d, AvgPool2d, Flatten)


def supports_megabatch(model) -> bool:
    """True when every layer of ``model`` trains correctly as a wave.

    The check is on *exact* types: a subclass may override forward or
    backward semantics the leading-client-axis contract does not cover,
    so it falls back to the serial path.
    """
    if type(model) is not Sequential:
        return False
    return all(type(layer) in _WAVE_LAYERS for layer in model.layers)


def train_wave(model, clients, global_params: np.ndarray) -> np.ndarray:
    """Run local SGD for a wave of eligible clients as batched ops.

    Parameters
    ----------
    model:
        The coordinator's template model (architecture + masks; its
        parameter values are ignored in favour of ``global_params``).
    clients:
        K :class:`~repro.fl.client.Client` instances with identical
        training signatures (dataset shape, batch size, epochs, SGD
        hyper-parameters) — the executor's grouping guarantees this.
    global_params:
        The flat broadcast vector every client trains from.

    Returns the ``(K, dim)`` delta matrix; row ``k`` is bitwise equal to
    ``clients[k].local_update(clone, global_params)``.  Each client's
    generator is advanced exactly as serial training advances it.
    """
    k_clients = len(clients)
    config = clients[0].config
    datasets = [client._training_data() for client in clients]
    images = np.stack([d.images for d in datasets])  # (K, n, c, h, w)
    labels = np.stack([d.labels for d in datasets])  # (K, n)
    num_samples = images.shape[1]

    wave = clone_module(model)
    offset = 0
    for param in wave.parameters():
        shape, size = param.shape, param.size
        segment = global_params[offset : offset + size].reshape(shape)
        param.data = np.ascontiguousarray(
            np.broadcast_to(segment, (k_clients,) + shape)
        )
        param.grad = np.zeros_like(param.data)
        param.stacked = True
        offset += size
    wave.train()

    penalty = None
    if config.last_conv_l2 > 0:
        penalty = LayerL2Penalty([wave.last_conv()], config.last_conv_l2)
    loss_fn = CrossEntropyLoss(l2_penalty=penalty)
    optimizer = SGD(
        wave.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    rows = np.arange(k_clients)[:, None]
    for _ in range(config.local_epochs):
        orders = np.stack(
            [client.rng.permutation(num_samples) for client in clients]
        )
        for start in range(0, num_samples, config.batch_size):
            index = orders[:, start : start + config.batch_size]  # (K, b)
            x = images[rows, index].reshape((-1,) + images.shape[2:])
            logits = wave(x)
            loss_fn(logits.reshape(index.shape + (-1,)), labels[rows, index])
            optimizer.zero_grad()
            grad = loss_fn.backward().reshape(logits.shape)
            wave.backward(grad, input_grad=False)
            optimizer.step()
    deltas = np.concatenate(
        [param.data.reshape(k_clients, -1) for param in wave.parameters()], axis=1
    )
    deltas -= global_params
    return deltas
