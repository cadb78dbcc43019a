"""Batch normalization for NCHW feature maps.

Not used by the paper's architectures (which follow the original
LeNet/VGG recipes without normalization), but provided because (a) it is
the first thing a downstream user adds when adapting the zoo to harder
data, and (b) normalization interacts non-trivially with the defense:
after BatchNorm, per-channel activation *scale* is normalized away, so
dormancy must be judged by the learned affine gain rather than the raw
mean — ``repro.defense.activation`` still works because it profiles the
post-layer output, which includes the affine transform.
"""

from __future__ import annotations

import numpy as np

from .module import Module, Parameter

__all__ = ["BatchNorm2d"]


class BatchNorm2d(Module):
    """Per-channel batch normalization with running statistics.

    Training mode normalizes by batch statistics and updates running
    estimates; eval mode uses the running estimates.  Gradients follow
    the standard BN backward derivation.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {num_features}")
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected (n, {self.num_features}, h, w), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean *= 1.0 - self.momentum
            self.running_mean += self.momentum * mean
            self.running_var *= 1.0 - self.momentum
            self.running_var += self.momentum * var
        else:
            mean = self.running_mean.astype(x.dtype)
            var = self.running_var.astype(x.dtype)

        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )
        self._cache = (x_hat, inv_std, self.training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, was_training = self._cache

        if self.gamma.requires_grad:
            self.gamma.grad += (grad_output * x_hat).sum(axis=(0, 2, 3))
        if self.beta.requires_grad:
            self.beta.grad += grad_output.sum(axis=(0, 2, 3))

        grad_x_hat = grad_output * self.gamma.data[None, :, None, None]
        if not was_training:
            # eval mode: running stats are constants
            return grad_x_hat * inv_std[None, :, None, None]

        n = grad_output.shape[0] * grad_output.shape[2] * grad_output.shape[3]
        sum_g = grad_x_hat.sum(axis=(0, 2, 3))
        sum_gx = (grad_x_hat * x_hat).sum(axis=(0, 2, 3))
        return (
            inv_std[None, :, None, None]
            / n
            * (
                n * grad_x_hat
                - sum_g[None, :, None, None]
                - x_hat * sum_gx[None, :, None, None]
            )
        )

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features}, eps={self.eps})"
