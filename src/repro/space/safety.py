"""Empirical space-safety checking.

The paper's introduction: the complexity classes "provide implementors
with a formal basis for determining whether potential optimizations
are safe with respect to proper tail recursion."  An implementation
(or optimization, modeled as a machine variant) is *safe with respect
to* a reference implementation when its space consumption is in
O(S_reference).

This module decides the question empirically on program families: for
each family P, it sweeps N, fits both machines' growth, and flags the
candidate when it grows asymptotically faster than the reference on
any family.  The Theorem 25 separators make sharp probes: they are
precisely the families on which the paper's own machines part ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

from ..programs.separators import SEPARATORS
from ..syntax.ast import Expr
from .asymptotics import GROWTH_CLASSES, fit_growth, is_bounded
from .consumption import space_consumption

Source = Union[str, Expr]

#: Default probe suite: the Theorem 25 separators plus the canonical
#: loop idioms.
DEFAULT_PROBES: Tuple[Tuple[str, str], ...] = tuple(
    (separator.name, separator.source) for separator in SEPARATORS
) + (
    (
        "cps-pingpong",
        "(define (ping n k) (if (zero? n) (k 0) (pong (- n 1) k)))"
        "(define (pong n k) (if (zero? n) (k 1) (ping (- n 1) k)))"
        "(define (f n) (ping n (lambda (x) x)))",
    ),
)

_GRADES = list(GROWTH_CLASSES)


@dataclass(frozen=True)
class ProbeVerdict:
    """The outcome of one probe family."""

    probe: str
    candidate_growth: str
    reference_growth: str
    candidate_series: Tuple[int, ...]
    reference_series: Tuple[int, ...]

    @property
    def safe(self) -> bool:
        """Unsafe when the candidate's fitted class is strictly faster
        growing AND the pointwise candidate/reference ratio actually
        diverges over the measured range.  The second condition guards
        against fitting artifacts at small N: when the reference's own
        asymptotic term has not yet overtaken its constants, its fitted
        class can lag one grade behind even though it dominates the
        candidate pointwise (Theorem 24 guarantees the latter for the
        reference machines)."""
        if _GRADES.index(self.candidate_growth) <= _GRADES.index(
            self.reference_growth
        ):
            return True
        first_ratio = self.candidate_series[0] / self.reference_series[0]
        last_ratio = self.candidate_series[-1] / self.reference_series[-1]
        if last_ratio <= 1.0:
            # Pointwise below the reference over the whole range: a
            # genuine violation must eventually *exceed* it.
            return True
        return last_ratio <= 1.5 * first_ratio


@dataclass(frozen=True)
class SafetyReport:
    """All probe verdicts for a candidate/reference pair."""

    candidate: str
    reference: str
    verdicts: Tuple[ProbeVerdict, ...]

    @property
    def safe(self) -> bool:
        """True when the candidate never grows faster than the
        reference on any probe — the empirical reading of
        'space consumption in O(S_reference)'."""
        return all(verdict.safe for verdict in self.verdicts)

    @property
    def violations(self) -> Tuple[ProbeVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.safe)

    def summary(self) -> str:
        lines = [
            f"candidate {self.candidate!r} vs reference {self.reference!r}: "
            + ("SAFE" if self.safe else "NOT SAFE")
        ]
        for verdict in self.verdicts:
            marker = "ok " if verdict.safe else "VIOLATION"
            lines.append(
                f"  [{marker}] {verdict.probe}: candidate "
                f"{verdict.candidate_growth}, reference "
                f"{verdict.reference_growth}"
            )
        return "\n".join(lines)


def _classify(machine: str, source: str, ns: Sequence[int]) -> Tuple[str, Tuple[int, ...]]:
    # The sampled meter reports the exact meter's S_X (an uncertified
    # run replays exactly) at a fraction of its cost.
    totals = tuple(
        space_consumption(
            machine, source, str(n), fixed_precision=True, meter="sampled"
        )
        for n in ns
    )
    if is_bounded(totals):
        return "O(1)", totals
    return fit_growth(ns, totals).name, totals


def check_space_safety(
    candidate: str,
    reference: str = "tail",
    probes: Optional[Iterable[Tuple[str, str]]] = None,
    ns: Sequence[int] = (8, 16, 32, 64),
) -> SafetyReport:
    """Empirically decide whether *candidate*'s space consumption is
    within O(S_reference) on the probe families.

    Machine names come from :data:`repro.machine.variants.ALL_MACHINES`;
    a custom optimization can be probed by registering its machine
    class there or by calling :func:`_classify` directly.
    """
    verdicts = []
    for name, source in (probes if probes is not None else DEFAULT_PROBES):
        candidate_growth, candidate_series = _classify(candidate, source, ns)
        reference_growth, reference_series = _classify(reference, source, ns)
        verdicts.append(
            ProbeVerdict(
                probe=name,
                candidate_growth=candidate_growth,
                reference_growth=reference_growth,
                candidate_series=candidate_series,
                reference_series=reference_series,
            )
        )
    return SafetyReport(
        candidate=candidate, reference=reference, verdicts=tuple(verdicts)
    )


def is_properly_tail_recursive(
    machine: str, ns: Sequence[int] = (8, 16, 32, 64)
) -> bool:
    """Definition 5, empirically: is the machine's space consumption
    within O(S_tail) on the probe suite?"""
    return check_space_safety(machine, "tail", ns=ns).safe
