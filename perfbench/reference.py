"""A mapping-free reference evaluator for programs run with ``default_kernel``.

The compiler under test distributes every array over processors, moves it
between mappings and runs each ``compute`` on the distributed copies.  This
module ignores all of that: it keeps one plain numpy array per declared
array and walks the program's statements directly.  Remappings
(``redistribute``/``realign``) never change values, so they are no-ops
here; a correct compiled run must therefore end with exactly the values
this walk produces.  Nothing here imports the compiler, the runtime or the
mapping layers, so it cannot share their bugs.

The compute semantics mirror ``repro.runtime.executor.default_kernel``:

* ``acc = sum(np.sum(r) * 1e-3 for r in reads)``;
* every written array ``x`` becomes ``0.5 * x + acc + 1``;
* every defined array becomes ``linspace(0, 1, size) + acc``.

Arrays without an input start as zeros, like a fresh allocation.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.lang.ast_nodes import (
    ArrayDecl,
    Block,
    Compute,
    Do,
    If,
    Program,
    Realign,
    Redistribute,
)


class UnsupportedProgram(Exception):
    """The program uses a construct the reference evaluator does not model."""


def _extent(value, scalars: Mapping[str, int]) -> int:
    if isinstance(value, int):
        return value
    if value in scalars:
        return int(scalars[value])
    raise UnsupportedProgram(f"no value for extent or bound {value!r}")


def evaluate(
    program: Program,
    bindings: Mapping[str, int] | None = None,
    conditions: Mapping[str, bool] | None = None,
    inputs: Mapping[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Final global values of every array of the program's entry subroutine.

    ``conditions`` give each branch condition one fixed outcome.
    """
    sub = program.subroutines[0]
    scalars = dict(bindings or {})
    inputs = inputs or {}
    arrays: dict[str, np.ndarray] = {}
    for decl in sub.decls:
        if isinstance(decl, ArrayDecl):
            shape = tuple(_extent(e, scalars) for e in decl.extents)
            init = inputs.get(decl.name)
            if init is None:
                arrays[decl.name] = np.zeros(shape)
            else:
                arrays[decl.name] = np.array(init, dtype=np.float64).reshape(shape)
    conditions = conditions or {}

    def compute(stmt: Compute) -> None:
        if stmt.label:
            raise UnsupportedProgram(f"labelled compute {stmt.label!r} has its own kernel")
        acc = 0.0
        for name in stmt.reads:
            acc += float(np.sum(arrays[name])) * 1e-3
        for name in stmt.writes:
            arrays[name] = 0.5 * arrays[name] + acc + 1.0
        for name in stmt.defines:
            shape = arrays[name].shape
            base = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
            arrays[name] = base + acc

    def block(blk: Block, loops: dict[str, int]) -> None:
        for stmt in blk.stmts:
            if isinstance(stmt, Compute):
                compute(stmt)
            elif isinstance(stmt, (Redistribute, Realign)):
                pass  # a remapping moves values, it never changes them
            elif isinstance(stmt, If):
                block(stmt.then if conditions[stmt.cond] else stmt.orelse, loops)
            elif isinstance(stmt, Do):
                env = {**scalars, **loops}
                lo, hi = _extent(stmt.lo, env), _extent(stmt.hi, env)
                for i in range(lo, hi + 1):
                    block(stmt.body, {**loops, stmt.var: i})
            else:
                raise UnsupportedProgram(f"unsupported statement {type(stmt).__name__}")

    block(sub.body, {})
    return arrays

