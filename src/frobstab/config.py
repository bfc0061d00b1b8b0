"""Shared run configuration for the analysis pipeline and the CLI."""

from dataclasses import dataclass


@dataclass
class RunConfig:
    """Bounds and knobs shared by chains, searches and sampling.

    All chain computations are heuristically stabilized: a chain stops
    after `window` consecutive equality comparisons or at `e_max`, and
    every report carries the resulting status.  The degree-zero carrier
    takes no knob: its level is the exact one the a-invariant gives.
    """

    e_max: int = 6
    window: int = 2
    socle_t_max: int = 3
    deg_bound: int = 4
    seed: int = 0
    json: bool = False

    def __post_init__(self):
        for name in ("e_max", "window", "socle_t_max", "deg_bound"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
