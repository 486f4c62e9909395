"""Runtime system (paper Sec. 5).

The generated copy code relies on a small runtime: per-array *status*
descriptors (which version is current), per-version *live* flags, lazy
instantiation, saved reaching statuses around calls, and a memory manager
that may evict live copies under pressure and regenerate them later.

:class:`~repro.runtime.executor.Executor` interprets compiled programs on a
simulated :class:`~repro.spmd.machine.Machine`, moving real array data, so
numerical results can be validated against sequential NumPy references
while every remapping message is accounted.
:class:`~repro.runtime.counting.CountingExecutor` runs the same walk
without data, pricing each copy: it is the static traffic prediction.
"""

from repro.runtime.executor import ExecutionEnv, ExecutionResult, Executor, execute
from repro.runtime.memory import MemoryManager
from repro.runtime.status import ArrayRuntime

__all__ = [
    "ArrayRuntime",
    "ExecutionEnv",
    "ExecutionResult",
    "Executor",
    "MemoryManager",
    "execute",
]
