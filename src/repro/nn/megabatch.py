"""Vectorized K-client local training: the megabatch hot path.

:class:`~repro.fl.executor.MegabatchExecutor` runs a wave of K
homogeneous benign clients as *single* batched tensor ops instead of K
Python-level training loops.  The K clients' minibatches are stacked
along a leading axis (flattened into the batch dimension ``K*b`` for
the elementwise/pooling layers, reshaped to ``(K, b, ...)`` at every
matmul), the global weights are read once and stacked ``(K,) + shape``,
and per-client gradients come back as slices of the batch axis.

**The contract is bitwise identity with the serial path.**  Every
formula here mirrors its scalar twin line by line:

* :class:`~repro.nn.layers.Conv2d` / :class:`~repro.nn.layers.Linear`
  matmuls run as one 3-D :func:`numpy.matmul` over the ``(K, ...)``
  stack.  NumPy's matmul gufunc dispatches one GEMM per leading-axis
  slice with exactly the 2-D shapes the serial layer uses, so each
  slice's floats are the serial layer's floats.
* The data-movement kernels are not copied at all: the conv twin
  calls the same :func:`~repro.nn.functional.im2col` /
  :func:`~repro.nn.functional.col2im`, and the max-pool twin the same
  :func:`~repro.nn.functional.maxpool2d_forward` /
  :func:`~repro.nn.functional.maxpool2d_backward`, as the serial
  layers, on the flat ``K*b`` batch.
* Reductions (`bias.grad`, delta flattening) reduce *per client* —
  ``sum(axis=1)`` of a ``(K, rows, C)`` stack is elementwise identical
  to ``sum(axis=0)`` of each ``(rows, C)`` slice.
* :class:`~repro.nn.losses.CrossEntropyLoss` gradients divide by the
  *per-client* batch size; the loss scalar itself is never computed
  (the serial loop discards it).
* SGD with momentum/weight-decay runs the exact update arithmetic of
  :class:`~repro.nn.optim.SGD` on the stacked buffers, in parameter
  order, including the last-conv L2 penalty accumulated *before* the
  layer backward chain (matching
  :meth:`~repro.nn.losses.CrossEntropyLoss.backward`).
* Per-epoch shuffles draw ``rng.permutation(n)`` from each client's own
  generator, so the generators end in the same state serial execution
  leaves them in.
* :class:`~repro.nn.layers.Dropout` masks are drawn from a deep copy of
  the template layer's generator and tiled across the wave — exactly
  what per-client ``clone_module`` copies produce serially.

The template model is read-only throughout: layer hyper-parameters,
prune masks and architecture are inspected, never mutated, and weights
come from the broadcast ``global_params`` vector.
"""

from __future__ import annotations

import copy

import numpy as np

from . import functional as F
from .layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tanh,
)

__all__ = ["supports_megabatch", "train_wave"]


def supports_megabatch(model) -> bool:
    """True when every layer of ``model`` has a vectorized twin.

    The check is on *exact* types: a subclass may override forward or
    backward semantics the vectorized handlers do not reproduce, so it
    falls back to the serial path.
    """
    if type(model) is not Sequential:
        return False
    return all(type(layer) in _HANDLERS for layer in model.layers)


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
    batch_size = config.batch_size

    wave = _WaveModel(model, global_params, k_clients, config)
    rows = np.arange(k_clients)[:, None]
    for _ in range(config.local_epochs):
        orders = np.stack(
            [client.rng.permutation(num_samples) for client in clients]
        )
        for start in range(0, num_samples, batch_size):
            index = orders[:, start : start + batch_size]  # (K, b)
            batch = index.shape[1]
            x = images[rows, index].reshape((k_clients * batch,) + images.shape[2:])
            y = labels[rows, index].reshape(-1)
            logits = wave.forward(x)
            wave.zero_grad()
            wave.backward(_cross_entropy_grad(logits, y, batch), apply_penalty=True)
            wave.step()
    return wave.deltas(global_params)


def _cross_entropy_grad(
    logits: np.ndarray, labels: np.ndarray, batch: int
) -> np.ndarray:
    """``(softmax - onehot) / b`` on the flattened ``(K*b, classes)`` stack.

    Softmax is row-wise, so batching the K clients changes nothing; the
    division uses the per-client batch size ``b``, exactly the ``1/n``
    the serial :class:`~repro.nn.losses.CrossEntropyLoss` applies.  The
    loss *value* is skipped — the serial training loop discards it.
    """
    probs = F.softmax(logits, axis=1)
    grad = probs.copy()
    grad[np.arange(grad.shape[0]), labels] -= 1.0
    return grad / batch


class _WaveModel:
    """K stacked copies of a Sequential model sharing one pass."""

    def __init__(self, model, global_params, k_clients, config) -> None:
        self.k_clients = k_clients
        self.lr = config.lr
        self.momentum = config.momentum
        self.weight_decay = config.weight_decay
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(
                f"weight decay must be >= 0, got {self.weight_decay}"
            )

        # stacked parameter/gradient/velocity buffers, one triple per
        # Parameter in traversal order (the flat-vector layout)
        self.stacks: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self.velocity: list[np.ndarray] = []
        self.layout: list[tuple[int, int]] = []  # (offset, size)
        index_of = {}
        offset = 0
        for param in model.parameters():
            size = param.size
            segment = global_params[offset : offset + size].reshape(param.shape)
            stack = np.ascontiguousarray(
                np.broadcast_to(segment, (k_clients,) + param.shape)
            )
            index_of[id(param)] = len(self.stacks)
            self.stacks.append(stack)
            self.grads.append(np.zeros_like(stack))
            self.velocity.append(np.zeros_like(stack))
            self.layout.append((offset, size))
            offset += size

        self.handlers = [
            _HANDLERS[type(layer)](layer, self, index_of) for layer in model.layers
        ]

        # the last-conv L2 penalty accumulates 2*lambda*W into the grad
        # buffer before the layer backward chain runs (loss backward order)
        self.penalty_index: int | None = None
        self.penalty_coefficient = config.last_conv_l2
        if self.penalty_coefficient > 0:
            self.penalty_index = index_of[id(model.last_conv().weight)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for handler in self.handlers:
            x = handler.forward(x)
        return x

    def backward(self, grad: np.ndarray, apply_penalty: bool = False) -> None:
        """Accumulate every stacked gradient; the input gradient is not
        needed, so a first convolution skips it (as the serial
        ``Sequential.backward(..., input_grad=False)`` does)."""
        if apply_penalty and self.penalty_index is not None:
            i = self.penalty_index
            self.grads[i] += 2.0 * self.penalty_coefficient * self.stacks[i]
        first, *rest = self.handlers
        for handler in reversed(rest):
            grad = handler.backward(grad)
        if isinstance(first, _VConv2d):
            first.backward(grad, input_grad=False)
        else:
            first.backward(grad)

    def zero_grad(self) -> None:
        for grad in self.grads:
            grad[...] = 0.0

    def step(self) -> None:
        """One SGD step on every stacked buffer (exact serial arithmetic)."""
        for stack, grad, velocity in zip(self.stacks, self.grads, self.velocity):
            if self.weight_decay:
                grad = grad + self.weight_decay * stack
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            stack -= self.lr * update

    def deltas(self, global_params: np.ndarray) -> np.ndarray:
        """Per-client flat deltas, ``(K, dim)``; rows match serial bitwise."""
        flat = np.empty(
            (self.k_clients, global_params.size), dtype=global_params.dtype
        )
        for (offset, size), stack in zip(self.layout, self.stacks):
            flat[:, offset : offset + size] = stack.reshape(self.k_clients, -1)
        flat -= global_params[None, :]
        return flat

    def split(self, flat: np.ndarray) -> np.ndarray:
        """View a flat ``(K*b, ...)`` activation as ``(K, b, ...)``."""
        return flat.reshape((self.k_clients, -1) + flat.shape[1:])


class _VConv2d:
    def __init__(self, layer: Conv2d, wave: _WaveModel, index_of: dict) -> None:
        self.wave = wave
        self.kernel = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self.in_channels = layer.in_channels
        self.out_channels = layer.out_channels
        self.mask = layer.out_mask
        self.w_index = index_of[id(layer.weight)]
        self.b_index = index_of[id(layer.bias)]
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        wave = self.wave
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        k = self.kernel
        plan = F.conv_plan(h, w, k, k, self.stride, self.padding)
        out_h, out_w = plan.out_h, plan.out_w

        cols = F.im2col(x, k, k, self.stride, self.padding)
        cols3 = cols.reshape(wave.k_clients, -1, cols.shape[1])
        weight = wave.stacks[self.w_index]
        weight_3d = (
            weight * self.mask[None, :, None, None, None]
        ).reshape(wave.k_clients, self.out_channels, -1)
        bias = wave.stacks[self.b_index] * self.mask  # (K, C)
        out = np.matmul(cols3, weight_3d.transpose(0, 2, 1)) + bias[:, None, :]
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (x.shape, cols3, weight_3d)
        return out

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        wave = self.wave
        x_shape, cols3, weight_3d = self._cache
        grad_2d = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        grad_2d = grad_2d * self.mask
        grad_3d = grad_2d.reshape(wave.k_clients, -1, self.out_channels)

        grad_weight = np.matmul(grad_3d.transpose(0, 2, 1), cols3)
        weight_shape = wave.stacks[self.w_index].shape
        wave.grads[self.w_index] += (
            grad_weight.reshape(weight_shape)
            * self.mask[None, :, None, None, None]
        )
        wave.grads[self.b_index] += grad_3d.sum(axis=1) * self.mask
        if not input_grad:
            return None

        grad_cols = np.matmul(grad_3d, weight_3d)
        grad_cols = grad_cols.reshape(-1, grad_cols.shape[2])
        k = self.kernel
        return F.col2im(grad_cols, x_shape, k, k, self.stride, self.padding)


class _VLinear:
    def __init__(self, layer: Linear, wave: _WaveModel, index_of: dict) -> None:
        self.wave = wave
        self.in_features = layer.in_features
        self.out_features = layer.out_features
        self.mask = layer.out_mask
        self.w_index = index_of[id(layer.weight)]
        self.b_index = index_of[id(layer.bias)]
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        wave = self.wave
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (n, {self.in_features}), got {x.shape}"
            )
        x3 = wave.split(x)
        self._input = x3
        weight = wave.stacks[self.w_index]
        bias = wave.stacks[self.b_index]
        out = (
            np.matmul(x3, weight.transpose(0, 2, 1)) + bias[:, None, :]
        ) * self.mask
        return out.reshape(-1, self.out_features)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        wave = self.wave
        grad_3d = wave.split(grad_output) * self.mask
        wave.grads[self.w_index] += np.matmul(
            grad_3d.transpose(0, 2, 1), self._input
        )
        wave.grads[self.b_index] += grad_3d.sum(axis=1)
        grad_input = np.matmul(grad_3d, wave.stacks[self.w_index])
        return grad_input.reshape(-1, self.in_features)


class _VReLU:
    def __init__(self, layer: ReLU, wave: _WaveModel, index_of: dict) -> None:
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return F.relu(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * F.relu_grad(self._input)


class _VTanh:
    def __init__(self, layer: Tanh, wave: _WaveModel, index_of: dict) -> None:
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * F.tanh_grad(self._output)


class _VMaxPool2d:
    """Parameter-free and row-independent: the shared
    :func:`~repro.nn.functional.maxpool2d_forward` /
    :func:`~repro.nn.functional.maxpool2d_backward` kernels on the flat
    ``K*b`` batch (each window belongs to one client, so batching
    clients is indistinguishable from a bigger batch)."""

    def __init__(self, layer: MaxPool2d, wave: _WaveModel, index_of: dict) -> None:
        self.kernel = layer.kernel_size
        self.stride = layer.stride
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.maxpool2d_forward(x, self.kernel, self.stride)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return F.maxpool2d_backward(grad_output, self._cache)


class _VAvgPool2d:
    def __init__(self, layer: AvgPool2d, wave: _WaveModel, index_of: dict) -> None:
        self.kernel = layer.kernel_size
        self.stride = layer.stride
        self._input_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel
        plan = F.conv_plan(h, w, k, k, self.stride, 0)
        out_h, out_w = plan.out_h, plan.out_w
        cols = F.im2col(x, k, k, self.stride, 0).reshape(-1, c, k * k)
        out = cols.mean(axis=2).reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        self._input_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, c, out_h, out_w = grad_output.shape
        k = self.kernel
        flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, c, 1) / (k * k)
        grad_cols = np.broadcast_to(flat, (n * out_h * out_w, c, k * k))
        grad_cols = grad_cols.reshape(n * out_h * out_w, c * k * k)
        return F.col2im(grad_cols, self._input_shape, k, k, self.stride, 0)


class _VFlatten:
    def __init__(self, layer: Flatten, wave: _WaveModel, index_of: dict) -> None:
        self._input_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._input_shape)


class _VDropout:
    """One per-client-shaped mask drawn from a deep copy of the template
    layer's generator, tiled across the wave.

    Serially, every client trains on its own ``clone_module`` copy of
    the coordinator's model, and deep-copying duplicates the layer's
    generator state — so all K clients draw the *same* mask sequence.
    The tiled broadcast reproduces exactly that.
    """

    def __init__(self, layer: Dropout, wave: _WaveModel, index_of: dict) -> None:
        self.k_clients = wave.k_clients
        self.p = layer.p
        self.rng = copy.deepcopy(layer.rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.p == 0.0:  # the wave always trains (model.train() serially)
            self._mask = None
            return x
        keep = 1.0 - self.p
        per_client = (x.shape[0] // self.k_clients,) + x.shape[1:]
        mask = ((self.rng.random(per_client) < keep) / keep).astype(x.dtype)
        self._mask = np.broadcast_to(
            mask, (self.k_clients,) + per_client
        ).reshape(x.shape)
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


_HANDLERS = {
    Conv2d: _VConv2d,
    Linear: _VLinear,
    ReLU: _VReLU,
    Tanh: _VTanh,
    MaxPool2d: _VMaxPool2d,
    AvgPool2d: _VAvgPool2d,
    Flatten: _VFlatten,
    Dropout: _VDropout,
}
