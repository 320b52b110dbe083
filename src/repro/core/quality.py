"""Stopping rules: confidence-interval and relative-error targets.

Section 2.1: "the user can specify a cost budget, and our algorithm will
produce a final estimate with quality guarantee when the budget runs
out.  Alternatively, the user can specify a target level of quality
guarantee, and our algorithm will run until the target guarantee is
reached."  Section 6 uses two concrete targets:

* **Confidence interval** — by default a 1 % CI at 95 % confidence for
  small-to-moderate probabilities; the CI is read relative to the
  estimate (Figure 8 renders CIs "as percentage to the true
  probability").
* **Relative error** — ``sqrt(Var)/mu <= 10 %`` for tiny probabilities
  where the normal approximation behind CIs breaks down.

Both rules refuse to stop before a minimum number of hits and roots has
been observed, since variance estimates computed from a handful of hits
are wildly optimistic (a standard guard in rare-event simulation).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from .stats import critical_value


class QualityTarget(abc.ABC):
    """A stopping rule evaluated on the running estimate."""

    @abc.abstractmethod
    def is_met(self, probability: float, variance: float, hits: int,
               n_roots: int) -> bool:
        """Return True when the running estimate satisfies the target."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable target description for reports."""

    def projected_roots(self, probability: float, hits: int,
                        n_roots: int, variance=None):
        """Roughly how many *total* roots this target needs, or ``None``.

        A plug-in projection from the running estimate, used by
        adaptive cohort sizing (:func:`repro.core.fleet.screen_fleet`)
        to grow a member's next round toward its target instead of
        crawling there in fixed batches, and by
        :class:`~repro.core.smlss.CheckSchedule` to place a forest
        sampler's next stopping check.  Purely advisory: the stopping
        decision is always :meth:`is_met` on the actual counters, so a
        bad projection costs rounds, never correctness.  The default —
        ``None`` — means "no projection" (callers fall back to
        geometric growth).

        ``variance`` is the *measured* variance of the running
        estimator at ``n_roots`` roots, when the caller has one (MLSS
        samplers and the fused MLSS fleet pass measure one at each
        check).  Splitting estimators beat the binomial plug-in by
        orders of magnitude, so with a usable ``variance`` the
        projection scales the measured value by ``1/n`` instead of
        assuming binomial sampling.
        """
        return None


@dataclass(frozen=True)
class ConfidenceIntervalTarget(QualityTarget):
    """Stop when the CI half-width is small enough.

    ``half_width`` is relative to the running estimate when
    ``relative=True`` (the paper's "1 % CI"), absolute otherwise.
    """

    half_width: float = 0.01
    confidence: float = 0.95
    relative: bool = True
    min_hits: int = 10
    min_roots: int = 100

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError(f"half_width must be > 0, got {self.half_width}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )

    def is_met(self, probability: float, variance: float, hits: int,
               n_roots: int) -> bool:
        if hits < self.min_hits or n_roots < self.min_roots:
            return False
        if probability <= 0.0:
            return False
        half = critical_value(self.confidence) * math.sqrt(max(variance, 0.0))
        allowed = self.half_width * (probability if self.relative else 1.0)
        return half <= allowed

    def describe(self) -> str:
        kind = "relative" if self.relative else "absolute"
        return (f"{self.half_width:.2%} {kind} CI half-width at "
                f"{self.confidence:.0%} confidence")

    def projected_roots(self, probability: float, hits: int,
                        n_roots: int, variance=None):
        """Binomial plug-in ``n >= z^2 p (1-p) / allowed^2``, or — with
        a measured ``variance`` — the ``1/n`` scaling
        ``n >= n_roots z^2 var / allowed^2``."""
        if probability <= 0.0 or probability >= 1.0:
            return None
        allowed = self.half_width * (probability if self.relative else 1.0)
        z = critical_value(self.confidence)
        if variance is not None and variance > 0.0 \
                and math.isfinite(variance) and n_roots > 0:
            needed = n_roots * z * z * variance / (allowed * allowed)
        else:
            needed = (z * z * probability * (1.0 - probability)
                      / (allowed * allowed))
        needed = max(needed, self.min_roots,
                     self.min_hits / probability)
        return int(math.ceil(needed))


@dataclass(frozen=True)
class RelativeErrorTarget(QualityTarget):
    """Stop when ``sqrt(Var)/tau_hat`` drops below ``target``."""

    target: float = 0.10
    min_hits: int = 10
    min_roots: int = 100

    def __post_init__(self):
        if self.target <= 0:
            raise ValueError(f"target must be > 0, got {self.target}")

    def is_met(self, probability: float, variance: float, hits: int,
               n_roots: int) -> bool:
        if hits < self.min_hits or n_roots < self.min_roots:
            return False
        if probability <= 0.0:
            return False
        return math.sqrt(max(variance, 0.0)) / probability <= self.target

    def describe(self) -> str:
        return f"relative error <= {self.target:.0%}"

    def projected_roots(self, probability: float, hits: int,
                        n_roots: int, variance=None):
        """Binomial plug-in ``n >= (1-p) / (p target^2)``, or — with a
        measured ``variance`` — ``n >= n_roots var / (p^2 target^2)``."""
        if probability <= 0.0 or probability >= 1.0:
            return None
        if variance is not None and variance > 0.0 \
                and math.isfinite(variance) and n_roots > 0:
            needed = (n_roots * variance
                      / (probability * probability
                         * self.target * self.target))
        else:
            needed = (1.0 - probability) / (probability
                                            * self.target * self.target)
        needed = max(needed, self.min_roots,
                     self.min_hits / probability)
        return int(math.ceil(needed))


@dataclass(frozen=True)
class NeverTarget(QualityTarget):
    """A target that is never met — run until the budget is exhausted.

    Used for fixed-budget experiments such as the paper's Table 6
    (50,000 simulation invocations per run).
    """

    def is_met(self, probability: float, variance: float, hits: int,
               n_roots: int) -> bool:
        return False

    def describe(self) -> str:
        return "fixed budget (no quality target)"
