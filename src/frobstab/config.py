"""Shared run configuration for the analysis pipeline and the CLI."""

from dataclasses import dataclass


@dataclass
class RunConfig:
    """Bounds and knobs for annihilator chains, closures and surveys.

    All chain computations are heuristically stabilized: a chain stops
    after `window` consecutive equality comparisons or at `e_max`, and
    every report carries the resulting status.  `socle_t_max` bounds the
    truncation levels the annihilator surveys sample.  No verdict reads
    a knob: the degree-zero carrier sits at the exact level the
    a-invariant gives, and the socle route runs its kernel to a fixpoint.
    """

    e_max: int = 6
    window: int = 2
    socle_t_max: int = 3
    deg_bound: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("e_max", "window", "socle_t_max", "deg_bound"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
