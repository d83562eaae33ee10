"""Optimizers: dense SGD/Adagrad plus sparse row-wise variants.

DLRM training conventionally uses SGD for the MLPs and sparse
(row-wise) updates for embedding tables — only the rows touched by a
batch are updated.  The Eff-TT table performs its own *fused* update
(paper §III-B) and therefore bypasses these classes; they are used by
the dense baselines and the MLP stacks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.backend import ZONE_OPTIMIZER, get_backend
from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "SparseSGD", "Adagrad"]


class Optimizer:
    """Base optimizer over a fixed list of :class:`Parameter` objects."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.parameters: List[Parameter] = list(parameters)
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and L2 decay.

    ``weight_decay`` adds ``wd * param`` to the gradient before the
    momentum/velocity update (the coupled-L2 convention of
    ``torch.optim.SGD``).
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        bk = get_backend()
        with bk.zone(ZONE_OPTIMIZER):
            for param in self.parameters:
                if param.grad is None:
                    continue
                update = param.grad
                if self.weight_decay > 0.0:
                    update = update + self.weight_decay * param.data
                if self.momentum > 0.0:
                    vel = self._velocity.get(id(param))
                    if vel is None:
                        vel = bk.zeros(param.data.shape, dtype=param.data.dtype)
                        self._velocity[id(param)] = vel
                    vel *= self.momentum
                    vel += update
                    update = vel
                bk.axpy(param.data, update, -self.lr)


class SparseSGD:
    """Row-wise SGD update for embedding-style parameters.

    Instead of reading ``Parameter.grad`` (which would be a dense array
    the size of the table), callers pass the touched row ids and the
    per-row gradients directly — mirroring how sparse embedding
    gradients flow in the reference DLRM.

    Duplicate row ids accumulate, matching ``torch.nn.EmbeddingBag``
    sparse gradients: the same sum as ``np.add.at`` up to rounding
    order; deterministic (see :func:`repro.backend.groups.scatter_add_rows`).
    """

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.lr = lr

    def step_rows(
        self,
        table: np.ndarray,
        rows: np.ndarray,
        row_grads: np.ndarray,
        zone: str = ZONE_OPTIMIZER,
    ) -> None:
        """Apply ``table[rows] -= lr * row_grads`` with duplicate handling.

        ``zone`` re-tags the kernel zone (the parameter server passes
        its own apply zone).
        """
        bk = get_backend()
        rows = np.asarray(rows)
        # Gradients land at the table's own dtype — a float32 table is
        # updated in float32, never silently widened.
        row_grads = bk.asarray(row_grads, dtype=table.dtype)
        if rows.ndim != 1:
            raise ValueError(f"rows must be 1-D, got shape {rows.shape}")
        if row_grads.shape != (rows.size, table.shape[1]):
            raise ValueError(
                f"row_grads shape {row_grads.shape} does not match "
                f"({rows.size}, {table.shape[1]})"
            )
        with bk.zone(zone):
            bk.scatter_add_rows(table, rows, row_grads, scale=-self.lr)


class Adagrad(Optimizer):
    """Adagrad with per-element accumulators.

    The reference DLRM offers Adagrad for embedding tables; we provide
    it for parity experiments (Table IV sensitivity runs).
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        eps: float = 1e-10,
    ) -> None:
        super().__init__(parameters, lr)
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.eps = eps
        self._accumulators: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        bk = get_backend()
        with bk.zone(ZONE_OPTIMIZER):
            for param in self.parameters:
                if param.grad is None:
                    continue
                acc = self._accumulators.get(id(param))
                if acc is None:
                    acc = bk.zeros(param.data.shape, dtype=param.data.dtype)
                    self._accumulators[id(param)] = acc
                acc += param.grad * param.grad
                param.data -= self.lr * param.grad / (np.sqrt(acc) + self.eps)
