"""Per-structure stability-compilation reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..specs.interface import DataStructureSpec
from .compiler import StableCondition
from .quantified import PairStability


@dataclass
class StabilityReport:
    """Outcome of compiling one structure's between-condition catalog."""

    name: str
    family: str
    pairs: list[PairStability] = field(default_factory=list)
    #: Sum of the report's task-shard times (engine convention: stable
    #: across serial, parallel, and cache-served runs).
    elapsed: float = field(default=0.0, compare=False)
    task_timings: list = field(default_factory=list, repr=False,
                               compare=False)

    def _count(self, verdict: str) -> int:
        return sum(1 for pair in self.pairs if pair.verdict == verdict)

    @property
    def stable_count(self) -> int:
        """Conditions that are arg/result-only verbatim."""
        return self._count("stable")

    @property
    def weakened_count(self) -> int:
        """Fragile conditions with a compiled drift-stable weakening."""
        return self._count("weakened")

    @property
    def proved_count(self) -> int:
        """Weakened pairs whose every armed candidate carries a
        symbolic all-states proof (prover runs only)."""
        return self._count("proved")

    @property
    def synthesized_count(self) -> int:
        """Pairs that gained at least one armed abduced candidate from
        the CEGIS loop (abduction runs only)."""
        return self._count("synthesized")

    @property
    def fragile_count(self) -> int:
        """Conditions left to the conservative runtime fallback."""
        return self._count("fragile")

    @property
    def cache_hits(self) -> int:
        return sum(1 for timing in self.task_timings if timing.cached)

    def stable_conditions(self, spec: DataStructureSpec) \
            -> tuple[StableCondition, ...]:
        """The registrable artifacts: one :class:`StableCondition` per
        weakened or proved pair (verbatim-stable conditions need none —
        the drift guard never fires for them)."""
        return tuple(
            StableCondition(family=self.family, m1=pair.m1, m2=pair.m2,
                            text=pair.stable_text, spec=spec,
                            tier=pair.verdict)
            for pair in self.pairs
            if pair.verdict in ("weakened", "proved", "synthesized"))

    def summary(self) -> str:
        proved = (f", {self.proved_count} proved"
                  if self.proved_count else "")
        synthesized = (f", {self.synthesized_count} synthesized"
                       if self.synthesized_count else "")
        return (f"{self.name}: {len(self.pairs)} between conditions — "
                f"{self.stable_count} stable, {self.weakened_count} "
                f"weakened{proved}{synthesized}, {self.fragile_count} "
                f"fragile ({self.elapsed:.2f}s)")
