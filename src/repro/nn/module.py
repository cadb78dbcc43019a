"""Module and parameter abstractions for the NumPy deep-learning framework.

The design mirrors the familiar torch.nn split — a :class:`Parameter`
couples a value with its gradient buffer, a :class:`Module` owns
parameters and submodules — but backpropagation is *explicit*: every
module implements both ``forward`` and ``backward``, and containers
chain them.  There is no tape; the framework is small enough that the
explicit style is simpler and much faster under NumPy.

Two features exist specifically for the paper's defense method:

* **Activation recording** (:meth:`Module.record_activations`): the
  federated-pruning step needs each client's mean per-channel activation
  at a chosen layer.  Any module can be asked to stash its outputs.
* **Prune masks**: layers that support channel pruning expose a boolean
  ``out_mask``; masked channels produce zero output and receive zero
  gradient, so fine-tuning cannot resurrect a pruned neuron.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .config import get_default_dtype

__all__ = ["Parameter", "Module", "set_profile_hook", "get_profile_hook"]


# The opt-in layer-profiling hook (see repro.obs.profile.LayerProfiler).
# None keeps the forward/backward hot path at one global load + identity
# check per call — the "off by default, <2% overhead" contract.  When
# set, the hook's profiled_forward/profiled_backward (and
# profiled_weight_backward, for a first layer run without its input
# gradient) run the layer and time it; the framework never imports
# repro.obs, so the dependency points obs -> nn only.
_PROFILE_HOOK = None


def set_profile_hook(hook) -> object | None:
    """Install (or with ``None`` clear) the global layer-profiling hook.

    Returns the previously installed hook so callers can restore it —
    the discipline :class:`repro.obs.profile.LayerProfiler` follows.
    """
    global _PROFILE_HOOK
    previous = _PROFILE_HOOK
    _PROFILE_HOOK = hook
    return previous


def get_profile_hook():
    """The currently installed layer-profiling hook (None when off)."""
    return _PROFILE_HOOK


class Parameter:
    """A trainable tensor with an accompanying gradient buffer.

    Attributes
    ----------
    data:
        The current value, an ndarray of the default floating dtype
        (:func:`~repro.nn.config.get_default_dtype`, ``float32`` unless
        changed) at the time the parameter was built.
    grad:
        Accumulated gradient of the loss with respect to ``data``; the
        same shape as ``data``.  Optimizers read it, ``zero_grad`` resets
        it.
    name:
        Dotted path assigned when the owning module tree is built; used
        in state dicts and error messages.
    version:
        Monotonic mutation counter.  Every in-place write to ``data``
        must bump it via :meth:`mark_dirty`; layers that cache derived
        tensors (e.g. :class:`~repro.nn.layers.Conv2d`'s masked weight
        matrix) key their caches on it.
    requires_grad:
        When False, layers skip this parameter's gradient on backward
        and leave ``grad`` untouched; input gradients are unchanged.
        Neural Cleanse freezes the model this way while it optimizes a
        trigger.  A class attribute, so pickled or cloned parameters
        that predate it read True.
    """

    requires_grad = True
    #: True on a megabatch wave's parameters (:mod:`repro.nn.megabatch`),
    #: whose ``data`` and ``grad`` carry a leading client axis ahead of
    #: the layer's own shape.
    stacked = False

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=get_default_dtype())
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.version = 0

    def mark_dirty(self) -> None:
        """Record that ``data`` was mutated in place.

        Callers that write through ``param.data[...]`` (optimizers,
        mask application, weight surgery) must call this so version-keyed
        caches notice the change.  Rebinding ``param.data`` to a new
        array is detected separately by identity, and needs no call.
        """
        self.version += 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def copy_(self, value: np.ndarray) -> None:
        """In-place overwrite of the value (shape-checked)."""
        value = np.asarray(value, dtype=self.data.dtype)
        if value.shape != self.data.shape:
            raise ValueError(
                f"shape mismatch for {self.name or 'parameter'}: "
                f"have {self.data.shape}, got {value.shape}"
            )
        self.data[...] = value
        self.mark_dirty()

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for layers and containers.

    Subclasses implement :meth:`forward` and :meth:`backward`.  The base
    class provides parameter traversal, train/eval mode, state-dict
    serialization and activation recording.
    """

    def __init__(self) -> None:
        self.training = True
        self._recording = False
        self.last_activation: np.ndarray | None = None

    # -- computation ---------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate ``grad_output`` and accumulate parameter gradients.

        Returns the gradient with respect to this module's input.
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        hook = _PROFILE_HOOK
        if hook is None:
            out = self.forward(x)
        else:
            out = hook.profiled_forward(self, x)
        if self._recording:
            self.last_activation = out
        return out

    # -- structure -----------------------------------------------------

    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant, depth-first."""
        yield self
        for child in self.children():
            yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total count of scalar trainable values."""
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- modes ---------------------------------------------------------

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # -- activation recording -------------------------------------------

    def record_activations(self, enabled: bool = True) -> None:
        """Enable or disable stashing of this module's forward outputs.

        When enabled, each call stores the raw output array on
        ``self.last_activation``.  The federated-pruning client uses this
        to compute mean channel activations without touching layer
        internals.
        """
        self._recording = enabled
        if not enabled:
            self.last_activation = None

    # -- serialization ---------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot all parameter values as copies keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values produced by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = own.keys() - state.keys()
        unexpected = state.keys() - own.keys()
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            param.copy_(state[name])

    def flat_parameters(self) -> np.ndarray:
        """Concatenate all parameter values into one 1-D vector.

        The federated aggregation rules (FedAvg, Krum, trimmed mean, …)
        operate on flat update vectors; this and
        :meth:`load_flat_parameters` are the bridge.
        """
        params = self.parameters()
        if not params:
            return np.zeros(0, dtype=get_default_dtype())
        return np.concatenate([param.data.ravel() for param in params])

    def load_flat_parameters(self, flat: np.ndarray) -> None:
        """Inverse of :meth:`flat_parameters`."""
        flat = np.asarray(flat)
        expected = self.num_parameters()
        if flat.shape != (expected,):
            raise ValueError(
                f"flat vector has shape {flat.shape}, expected ({expected},)"
            )
        offset = 0
        for param in self.parameters():
            count = param.size
            param.data[...] = flat[offset : offset + count].reshape(param.shape)
            param.mark_dirty()
            offset += count
