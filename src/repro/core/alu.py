"""Opcode semantics and the per-engine ALU.

Update opcodes fall into two classes:

* **reduce** opcodes accumulate a value into the flow's partial result, which
  is later aggregated along the ARTree by the Gather phase
  (``sum += A[i] * B[i]`` style);
* **store** opcodes write a value to the target memory location and need no
  flow bookkeeping (the ``mov``/``const_assign`` Updates of the PageRank
  pseudocode in Figure 3.2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..sim import Component, CounterHandle, Simulator


class OpClass(enum.Enum):
    REDUCE = "reduce"
    STORE = "store"


@dataclass(frozen=True)
class OpcodeSpec:
    """Semantics of one Update opcode."""

    name: str
    op_class: OpClass
    num_operands: int
    #: Combine the (up to two) source operands into the value to accumulate/store.
    combine: Callable[[float, float], float]
    #: Merge a combined value (or a child's partial result) into an accumulator.
    accumulate: Callable[[float, float], float]
    #: Identity element of ``accumulate``.
    identity: float


def _first(a: float, _b: float) -> float:
    return a


OPCODES: Dict[str, OpcodeSpec] = {
    "add": OpcodeSpec("add", OpClass.REDUCE, 1, _first, lambda acc, v: acc + v, 0.0),
    "mac": OpcodeSpec("mac", OpClass.REDUCE, 2, lambda a, b: a * b,
                      lambda acc, v: acc + v, 0.0),
    "mult": OpcodeSpec("mult", OpClass.REDUCE, 2, lambda a, b: a * b,
                       lambda acc, v: acc + v, 0.0),
    "abs_diff": OpcodeSpec("abs_diff", OpClass.REDUCE, 2, lambda a, b: abs(a - b),
                           lambda acc, v: acc + v, 0.0),
    "min": OpcodeSpec("min", OpClass.REDUCE, 1, _first, min, math.inf),
    "max": OpcodeSpec("max", OpClass.REDUCE, 1, _first, max, -math.inf),
    "mov": OpcodeSpec("mov", OpClass.STORE, 1, _first, _first, 0.0),
    "const_assign": OpcodeSpec("const_assign", OpClass.STORE, 0, _first, _first, 0.0),
}


def opcode_spec(name: str) -> OpcodeSpec:
    """Look up an opcode; raises ``ValueError`` for unknown names."""
    try:
        return OPCODES[name]
    except KeyError:
        raise ValueError(f"unknown Update opcode {name!r}; known: {sorted(OPCODES)}")


def is_reduce_opcode(name: str) -> bool:
    return opcode_spec(name).op_class is OpClass.REDUCE


class ALU(Component):
    """The arithmetic unit of one Active-Routing engine."""

    def __init__(self, sim: Simulator, name: str, latency: float = 2.0) -> None:
        super().__init__(sim, name)
        self.latency = latency
        # combine()/accumulate() run once per Update: their counter cells are
        # bound here, and each per-opcode cell on the opcode's first use (a
        # small dict keyed by opcode).
        self._h_ops = self.counter_handle("ops")
        self._h_reductions = self.counter_handle("reductions")
        self._h_ops_by_opcode: Dict[str, CounterHandle] = {}

    def combine(self, opcode: str, a: float, b: float = 0.0) -> float:
        """Execute the data-processing part of an Update (e.g. the multiply of a MAC)."""
        # Direct dict probe on the hot path; the opcode_spec() wrapper (and
        # its friendly error) only runs for unknown names.
        spec = OPCODES.get(opcode)
        if spec is None:
            spec = opcode_spec(opcode)
        self._h_ops.value += 1
        opcode_cell = self._h_ops_by_opcode.get(opcode)
        if opcode_cell is None:
            opcode_cell = self._h_ops_by_opcode[opcode] = self.counter_handle(
                f"ops.{opcode}")
        opcode_cell.value += 1
        return spec.combine(a, b)

    def accumulate(self, opcode: str, accumulator: Optional[float], value: float) -> float:
        """Fold ``value`` into ``accumulator`` using the opcode's reduction."""
        spec = OPCODES.get(opcode)
        if spec is None:
            spec = opcode_spec(opcode)
        if accumulator is None:
            accumulator = spec.identity
        self._h_reductions.value += 1
        return spec.accumulate(accumulator, value)
