"""What every workload shares: operation records and the phase result."""

from __future__ import annotations

import dataclasses
import os
import shutil


@dataclasses.dataclass
class Op:
    """One timed operation as the client saw it."""

    kind: str
    seconds: float
    ok: bool = True
    #: The server refused the attempt (429 or busy), a subset of not ok.
    refused: bool = False


@dataclasses.dataclass
class Phase:
    """The operations of one timed phase and its wall-clock length."""

    ops: "list[Op]"
    wall_seconds: float
    #: Latency samples of the workload's unit operation (``op_ms``).
    unit_samples: "list[float]"
    #: Extra per-kind latency samples, in seconds, keyed by report name.
    by_kind: "dict[str, list[float]]" = dataclasses.field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    @property
    def throughput(self) -> float:
        done = sum(1 for op in self.ops if op.ok)
        return done / self.wall_seconds if self.wall_seconds > 0 else 0.0


def fresh_dir(path: str) -> str:
    """Create ``path`` empty (removing what a crashed run left)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def files_size(*paths: str) -> int:
    """Summed size of the files that exist among ``paths``."""
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))
