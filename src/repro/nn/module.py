"""Base classes for the manual-backward module system."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike

__all__ = ["Parameter", "Module"]


class Parameter:
    """A trainable dense tensor with an accumulated gradient.

    Attributes
    ----------
    data:
        The parameter value (a :data:`~repro.backend.DEFAULT_DTYPE`
        ndarray unless ``dtype`` says otherwise).  Updated in place by optimizers so views held by
        modules stay valid.
    grad:
        Accumulated gradient of the same shape and dtype, or ``None``
        when no backward pass has run since the last ``zero_grad``.
    name:
        Optional diagnostic label.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(
        self, data: np.ndarray, name: str = "", dtype: DTypeLike = DEFAULT_DTYPE
    ) -> None:
        self.data = np.asarray(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the stored gradient, allocating on first use."""
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"shape {self.data.shape} for {self.name or 'parameter'}"
            )
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for layers with manual forward/backward passes.

    Subclasses register parameters via :meth:`register_parameter` and
    child modules via :meth:`register_module`; ``parameters()`` then
    walks the tree.  There is no implicit graph — callers invoke
    ``backward`` in reverse order of ``forward`` themselves (the DLRM
    model class does this for its fixed architecture).
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- registration ------------------------------------------------
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        if not param.name:
            param.name = f"{type(self).__name__}.{name}"
        self._parameters[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    # -- traversal ---------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        yield from self._parameters.values()
        for child in self._modules.values():
            yield from child.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def children(self) -> List["Module"]:
        return list(self._modules.values())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count (dense parameters only)."""
        return sum(p.size for p in self.parameters())

    # -- mode switches -----------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- interface ---------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def backward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
