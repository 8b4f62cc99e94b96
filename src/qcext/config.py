"""Run configuration shared by the CLI commands.

Precedence: explicit flags > environment (QCEXT_TOL, QCEXT_SEED) > defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .geometry import TOL


@dataclass
class RunConfig:
    tol: float = TOL
    seed: int = 0
    kmax: int = 24
    grid: int = 256
    out: str = ""

    def __post_init__(self):
        if self.tol <= 0 or self.grid <= 0:
            raise ValueError("numeric configuration fields must be positive")


def from_flags(args) -> RunConfig:
    """Build the config from parsed argparse flags and the environment."""
    env_tol = os.environ.get("QCEXT_TOL")
    env_seed = os.environ.get("QCEXT_SEED")
    tol = args.tol if args.tol is not None else (
        float(env_tol) if env_tol else TOL)
    seed = args.seed if args.seed is not None else (
        int(env_seed) if env_seed else 0)
    return RunConfig(
        tol=tol,
        seed=seed,
        kmax=args.kmax if args.kmax is not None else 24,
        grid=args.grid if args.grid is not None else 256,
        out=args.out or "",
    )
