"""Neural-network layers with explicit forward/backward passes.

Every layer caches whatever the backward pass needs during forward.
Calling ``backward`` before ``forward`` raises; calling ``forward``
twice overwrites the cache (the training loop is strictly
forward-then-backward per batch).

Channel pruning support
-----------------------
:class:`Conv2d` and :class:`Linear` carry an ``out_mask`` boolean array,
one flag per output channel/feature.  A masked-out channel:

* produces exactly zero output,
* contributes zero gradient to its own weights and bias, so no amount
  of fine-tuning resurrects it.

This is how the paper's federated pruning "removes" a neuron without
physically reshaping downstream layers.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from . import module as _module
from .module import Module, Parameter

__all__ = [
    "Conv2d",
    "Linear",
    "ReLU",
    "Tanh",
    "MaxPool2d",
    "AvgPool2d",
    "Flatten",
    "Dropout",
    "Sequential",
]


class Conv2d(Module):
    """2-D convolution over NCHW inputs, implemented via im2col.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of input and output feature maps.
    kernel_size:
        Square kernel side length.
    stride, padding:
        Usual convolution hyper-parameters (symmetric padding).
    rng:
        Generator for Kaiming-uniform weight init.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        weight_shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(weight_shape, rng))
        self.bias = Parameter(init.zeros((out_channels,)))
        self.out_mask = np.ones(out_channels, dtype=bool)
        self._cache: tuple | None = None
        self._weight_2d: np.ndarray | None = None
        self._weight_2d_src: np.ndarray | None = None
        self._weight_2d_version = -1
        self._weight_2d_mask: bytes | None = None

    def _masked_weight_2d(self) -> np.ndarray:
        """The masked weight matrix ``(out_channels, c*k*k)``, cached.

        Forward and backward both need this product; recomputing it per
        pass doubles the masking cost for nothing.  The cache is keyed on
        the identity of ``weight.data`` (catches rebinds), the parameter's
        mutation :attr:`~repro.nn.module.Parameter.version` (catches
        in-place writes, provided the writer called ``mark_dirty``), and
        the mask bytes (``out_mask`` is mutated in place by pruning).
        """
        mask_bytes = self.out_mask.tobytes()
        if (
            self._weight_2d is None
            or self._weight_2d_src is not self.weight.data
            or self._weight_2d_version != self.weight.version
            or self._weight_2d_mask != mask_bytes
        ):
            self._weight_2d = (
                self.weight.data * self.out_mask[:, None, None, None]
            ).reshape(self.out_channels, -1)
            self._weight_2d_src = self.weight.data
            self._weight_2d_version = self.weight.version
            self._weight_2d_mask = mask_bytes
        return self._weight_2d

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        k = self.kernel_size
        plan = F.conv_plan(h, w, k, k, self.stride, self.padding)
        out_h, out_w = plan.out_h, plan.out_w

        cols = F.im2col(x, k, k, self.stride, self.padding)
        weight_2d = self._masked_weight_2d()
        out = cols @ weight_2d.T + self.bias.data * self.out_mask
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (x.shape, cols)
        return out

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate weight/bias gradients; return the input gradient.

        ``input_grad=False`` skips the input gradient (its GEMM and
        :func:`~repro.nn.functional.col2im`) and returns ``None`` — for a
        first layer whose input gradient the caller would discard.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols = self._cache
        n, _, out_h, out_w = grad_output.shape

        grad_2d = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        grad_2d = grad_2d * self.out_mask  # masked channels learn nothing

        grad_weight = (grad_2d.T @ cols).reshape(self.weight.shape)
        self.weight.grad += grad_weight * self.out_mask[:, None, None, None]
        self.bias.grad += grad_2d.sum(axis=0) * self.out_mask
        if not input_grad:
            return None

        grad_cols = grad_2d @ self._masked_weight_2d()
        k = self.kernel_size
        return F.col2im(grad_cols, x_shape, k, k, self.stride, self.padding)

    def apply_mask(self) -> None:
        """Zero the weights/bias of masked channels in place.

        The mask already silences the channels functionally; this makes
        the stored parameters reflect it too, which matters for the
        adjust-extreme-weights statistics (pruned weights must not skew
        the layer mean/std) and for serialized models.
        """
        dead = ~self.out_mask
        self.weight.data[dead] = 0.0
        self.bias.data[dead] = 0.0
        self.weight.mark_dirty()
        self.bias.mark_dirty()
        self._weight_2d = None

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b`` with output masking."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,)))
        self.out_mask = np.ones(out_features, dtype=bool)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (n, {self.in_features}), got {x.shape}"
            )
        self._input = x
        return (x @ self.weight.data.T + self.bias.data) * self.out_mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_output = grad_output * self.out_mask
        self.weight.grad += grad_output.T @ self._input
        self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data

    def apply_mask(self) -> None:
        """Zero parameters of masked output features in place."""
        dead = ~self.out_mask
        self.weight.data[dead] = 0.0
        self.bias.data[dead] = 0.0
        self.weight.mark_dirty()
        self.bias.mark_dirty()

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Elementwise rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return F.relu(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        return grad_output * F.relu_grad(self._input)

    def __repr__(self) -> str:
        return "ReLU()"


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * F.tanh_grad(self._output)

    def __repr__(self) -> str:
        return "Tanh()"


class MaxPool2d(Module):
    """Max pooling with square window; window must tile the input."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.maxpool2d_forward(x, self.kernel_size, self.stride)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return F.maxpool2d_backward(grad_output, self._cache)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    """Average pooling with square window; window must tile the input."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._input_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        plan = F.conv_plan(h, w, k, k, self.stride, 0)
        out_h, out_w = plan.out_h, plan.out_w
        cols = F.im2col(x, k, k, self.stride, 0).reshape(-1, c, k * k)
        out = cols.mean(axis=2).reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        self._input_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, out_h, out_w = grad_output.shape
        k = self.kernel_size
        flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, c, 1) / (k * k)
        grad_cols = np.broadcast_to(flat, (n * out_h * out_w, c, k * k))
        grad_cols = grad_cols.reshape(n * out_h * out_w, c * k * k)
        return F.col2im(grad_cols, self._input_shape, k, k, self.stride, 0)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class Flatten(Module):
    """Collapse all non-batch dimensions into one."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._input_shape)

    def __repr__(self) -> str:
        return "Flatten()"


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = ((self.rng.random(x.shape) < keep) / keep).astype(x.dtype)
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Chain of modules applied in order.

    Supports integer indexing, iteration, and lookup of named layers:
    architectures in :mod:`repro.nn.zoo` attach a ``layer_names`` list so
    that the defense can address "the last convolutional layer" without
    hard-coded indices.
    """

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backpropagate through every layer, last to first.

        Returns the gradient with respect to the model input.  Training
        loops that discard it pass ``input_grad=False``: a first
        :class:`Conv2d` then skips its input-gradient GEMM and col2im,
        and the call returns ``None``.  Parameter gradients are the same
        either way.
        """
        # the per-layer backward chain is the one place layer backward
        # calls funnel through, so the profiling hook lives here (the
        # forward twin sits in Module.__call__); one global load per
        # backward pass keeps the off path free
        hook = _module._PROFILE_HOOK
        layers = self.layers
        skip_first = not input_grad and bool(layers) and isinstance(layers[0], Conv2d)
        chain = layers[:0:-1] if skip_first else layers[::-1]
        if hook is None:
            for layer in chain:
                grad_output = layer.backward(grad_output)
            if skip_first:
                layers[0].backward(grad_output, input_grad=False)
        else:
            for layer in chain:
                grad_output = hook.profiled_backward(layer, grad_output)
            if skip_first:
                hook.profiled_weight_backward(layers[0], grad_output)
        return grad_output if input_grad else None

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def conv_layers(self) -> list[Conv2d]:
        """All Conv2d layers in order of appearance."""
        return [m for m in self.modules() if isinstance(m, Conv2d)]

    def last_conv(self) -> Conv2d:
        """The last convolutional layer — the defense's main target."""
        convs = self.conv_layers()
        if not convs:
            raise ValueError("model has no convolutional layers")
        return convs[-1]

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential({inner})"
