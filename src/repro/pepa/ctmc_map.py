"""Mapping an explored PEPA state space to a CTMC generator.

The generator's off-diagonal entries sum the rates of all transitions
between each ordered state pair; per-action rate matrices are kept so
action throughputs (``service2`` completions, ``arrival`` losses, ...) can
be read from the steady-state vector.  Self-loop transitions (e.g. an
``arrival`` dropped by a full queue modelled as ``Q_K -> Q_K``) do not
affect the generator but are retained in the action matrices, so loss rates
remain observable.  Assembly is :func:`repro.ctmc.generator.
assemble_generator`, the one generator assembler.
"""

from __future__ import annotations

from repro.ctmc.generator import Generator, assemble_generator
from repro.pepa.statespace import StateSpace

__all__ = ["to_generator"]


def to_generator(space: StateSpace) -> Generator:
    """Build a :class:`~repro.ctmc.generator.Generator` from ``space``."""
    return assemble_generator(
        space.n_states, space.src, space.dst, space.rate, space.action
    )
