"""SLO and staleness knobs for the serving degradation ladder.

The ladder itself (healthy → degraded → shed) lives in
:mod:`repro.serving.fleet`; this is the policy it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience.circuit import BreakerConfig
from repro.utils.validation import check_positive

__all__ = ["DegradationPolicy"]


@dataclass(frozen=True)
class DegradationPolicy:
    """SLO and staleness knobs for the degradation ladder."""

    #: Per-request latency bound (seconds); a batch whose worst request
    #: exceeds it counts as one breaker failure.
    slo_target: float = 5e-3
    #: Maximum simulated age of the fallback snapshot at serve time.
    max_staleness: float = 10.0
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        check_positive(self.slo_target, "slo_target")
        if self.max_staleness < 0:
            raise ValueError(
                f"max_staleness must be >= 0, got {self.max_staleness}"
            )
