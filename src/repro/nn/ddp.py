"""Distributed Data Parallel over the simulated communicator.

Mirrors ``torch.nn.parallel.DistributedDataParallel``: every rank holds a
model replica; at construction rank 0's parameters are broadcast so replicas
start identical; after each backward pass :meth:`DistributedDataParallel.
sync_gradients` all-reduces (averages) gradients so optimizer steps stay in
lock-step.  With a :class:`~repro.parallel.comm.SerialComm` it degrades to a
no-op wrapper, matching single-GPU behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, ParamPack
from repro.parallel.comm import Communicator

__all__ = ["DistributedDataParallel", "shard_indices"]


def shard_indices(n: int, comm: Communicator, seed: int = 0) -> np.ndarray:
    """This rank's shard of sample indices (DistributedSampler equivalent).

    All ranks deterministically shuffle the same permutation, then take a
    contiguous block; every sample is assigned to exactly one rank.
    """
    perm = np.random.default_rng(seed).permutation(n)
    from repro.parallel.partition import block_bounds

    lo, hi = block_bounds(n, comm.size, comm.rank)
    return perm[lo:hi]


class DistributedDataParallel(Module):
    """Wrap a module for synchronous data-parallel training."""

    def __init__(self, module: Module, comm: Communicator) -> None:
        super().__init__()
        self.module = module
        self.comm = comm
        # Replicas start from rank 0's weights, like torch DDP.
        state = module.state_dict() if comm.rank == 0 else None
        state = comm.bcast(state, root=0)
        if comm.rank != 0:
            module.load_state_dict(state)
        # The gradient bucket: an optimizer over the same parameters
        # shares this pack.
        self.pack = ParamPack.of(module.parameters())

    def forward(self, *args, **kwargs):
        return self.module(*args, **kwargs)

    def sync_parameters(self) -> None:
        """Re-broadcast rank 0's parameters so replicas are identical.

        Called after out-of-band weight mutation — e.g. every rank restoring
        a checkpoint from disk — to re-establish the replica invariant the
        constructor set up.
        """
        if self.comm.size == 1:
            return
        state = self.module.state_dict() if self.comm.rank == 0 else None
        state = self.comm.bcast(state, root=0)
        if self.comm.rank != 0:
            self.module.load_state_dict(state)

    def sync_gradients(self) -> None:
        """Average gradients across ranks (call between backward and step).

        One allreduce of the pack's gradient buffer per dtype (every model
        here has one), like bucketed DDP.  A parameter without a gradient
        contributes zeros and gets the mean like the rest.
        """
        if self.comm.size == 1:
            return
        for p in self.pack.params:
            if p.grad is not p.slot:
                np.copyto(p.slot, 0.0 if p.grad is None else p.grad)
            p.grad, p.grad_order = p.slot, None
        for buf in self.pack.grad.values():
            # Send a copy: the thread backend folds its peers' arrays by
            # reference, so a slower peer may still be reading this rank's
            # contribution when this rank writes the mean into the buffer.
            total = self.comm.allreduce(buf.copy(), op="sum")
            np.divide(total, self.comm.size, out=buf)

    def parameters(self):
        return self.module.parameters()

    def named_parameters(self, prefix: str = ""):
        return self.module.named_parameters(prefix)

    def state_dict(self):
        return self.module.state_dict()

    def load_state_dict(self, state):
        self.module.load_state_dict(state)
