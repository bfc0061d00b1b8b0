"""Shared run configuration for the annihilator chains."""

from dataclasses import dataclass

from .frobenius import DEFAULT_E_MAX, DEFAULT_WINDOW


@dataclass
class RunConfig:
    """Bounds of the annihilator chains.

    A chain stops after `window` consecutive equality comparisons or at
    `e_max`, and its report carries the resulting status; the bounds
    default to those of `frobenius_closure`.  Nothing reads `seed`, which
    `verdictbench/run.py` still passes.  No verdict reads a RunConfig: the
    degree-zero carrier sits at the exact level the a-invariant gives, and
    the socle route runs its kernel to a fixpoint.
    """

    e_max: int = DEFAULT_E_MAX
    window: int = DEFAULT_WINDOW
    seed: int = 0

    def __post_init__(self):
        for name in ("e_max", "window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
