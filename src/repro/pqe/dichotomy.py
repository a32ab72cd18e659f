"""Classification of H-queries into the regions of Figure 1.

The paper's Figure 1 partitions H by the tractability/compilability facts
established across Sections 3–6:

* ``DEGENERATE`` — ``phi`` degenerate: ``Q_phi ∈ OBDD(PTIME)``
  (Proposition 3.7; these are the inversion-free H-queries, the blue
  rectangle);
* ``ZERO_EULER`` — nondegenerate with ``e(phi) = 0``: fragmentable, hence
  ``Q_phi ∈ d-D(PTIME)`` (Theorem 5.2, dashed green); for monotone ``phi``
  these are exactly the safe H+-queries (Corollary 3.9);
* ``HARD`` — ``e(phi) != 0`` within the monotone-achievable range:
  ``PQE(Q_phi)`` is #P-hard (Corollary 3.9 for monotone ``phi``,
  Proposition 6.4 beyond; dashed red);
* ``CONJECTURED_HARD`` — ``e(phi) != 0`` outside the monotone range
  (e.g. ``phi_maxEuler``): conjectured #P-hard (Open problem 1, dotted
  gray).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from repro.core.boolean_function import BooleanFunction
from repro.core.euler import monotone_euler_extremes
from repro.queries.hqueries import HQuery


class Region(enum.Enum):
    """The four regions of Figure 1 (degenerate ⊂ zero-Euler is drawn as a
    separate, stronger region because it admits OBDDs, not just d-Ds)."""

    DEGENERATE = "degenerate (OBDD PTIME)"
    ZERO_EULER = "zero Euler (d-D PTIME)"
    HARD = "#P-hard (Cor 3.9 / Prop 6.4)"
    CONJECTURED_HARD = "conjectured #P-hard (Open problem 1)"


@dataclass(frozen=True)
class Classification:
    """Everything Figure 1 says about one query.

    ``h_query`` marks classifications produced from an :class:`HQuery`'s
    Boolean function; :func:`classify_query` also classifies arbitrary
    UCQs/CQs through the safe-plan search, with ``h_query=False`` and the
    Euler/degeneracy fields inapplicable (zeroed).  ``lifted_safe``
    records whether the general lifted engine (:mod:`repro.pqe.lift`)
    admits the query — for h-queries this coincides with the
    Figure 1 criterion (a property test pins the agreement)."""

    region: Region
    euler: int
    is_ucq: bool
    is_degenerate: bool
    obdd_ptime: bool
    dd_ptime: bool
    known_hard: bool
    h_query: bool = True
    lifted_safe: bool = False

    @property
    def safe(self) -> bool:
        """For UCQs: the [12] dichotomy verdict (PTIME side)."""
        return self.dd_ptime

    @property
    def extensional_safe(self) -> bool:
        """Whether the query has an extensional (lifted) plan.  For
        h-queries: monotone ``phi`` that is degenerate or zero-Euler —
        exactly the safe H+-queries of Proposition 3.5 / Corollary 3.9.
        For general UCQs: whatever the Dalvi–Suciu safe-plan search
        decides (``lifted_safe``).  These evaluate with no lineage and no
        d-D (:mod:`repro.pqe.extensional` / :mod:`repro.pqe.lift`); the
        auto engine and the serving layer route them there."""
        if not self.h_query:
            return self.lifted_safe
        return self.is_ucq and (self.is_degenerate or self.euler == 0)


def classify_function(phi: BooleanFunction) -> Classification:
    """Classify the H-query ``Q_phi`` by its Boolean function."""
    k = phi.nvars - 1
    euler = phi.euler_characteristic()
    degenerate = phi.is_degenerate()
    if degenerate:
        region = Region.DEGENERATE
    elif euler == 0:
        region = Region.ZERO_EULER
    else:
        low, high = monotone_euler_extremes(k)
        region = (
            Region.HARD if low <= euler <= high else Region.CONJECTURED_HARD
        )
    monotone = phi.is_monotone()
    return Classification(
        region=region,
        euler=euler,
        is_ucq=monotone,
        is_degenerate=degenerate,
        obdd_ptime=degenerate,
        dd_ptime=euler == 0,
        known_hard=region is Region.HARD,
        h_query=True,
        # For h-queries the safe-plan search agrees with the Figure 1
        # criterion (pinned by a property test), so no search is run here
        # — region_counts sweeps whole truth-table ranges through this.
        lifted_safe=monotone and (degenerate or euler == 0),
    )


def classify(query: HQuery) -> Classification:
    """Classify an :class:`HQuery` (delegates to the function)."""
    return classify_function(query.phi)


@lru_cache(maxsize=256)
def classify_query(query) -> Classification:
    """Classify any supported query: :class:`HQuery` via Figure 1,
    arbitrary UCQs/CQs via the Dalvi–Suciu safe-plan search of
    :mod:`repro.pqe.lift` (complete for the UCQ fragment up to the
    search's resource caps, which reject conservatively — a capped
    rejection is reported as hard).  The Euler/degeneracy fields are
    h-query notions and are zeroed for general UCQs.

    Memoized by query value in an LRU of 256: the serving tier decodes
    a new, equal query object per request, whose own memos start
    empty, and a classification depends only on the query.  The
    returned :class:`Classification` is frozen, so callers share it."""
    if isinstance(query, HQuery):
        return classify(query)
    from repro.pqe.lift import is_liftable

    liftable = is_liftable(query)
    return Classification(
        region=Region.ZERO_EULER if liftable else Region.HARD,
        euler=0,
        is_ucq=True,
        is_degenerate=False,
        obdd_ptime=False,
        dd_ptime=liftable,
        known_hard=not liftable,
        h_query=False,
        lifted_safe=liftable,
    )


def region_counts(functions) -> dict[Region, int]:
    """Tally regions over an iterable of Boolean functions — the numeric
    reproduction of Figure 1 (bench E1)."""
    counts = {region: 0 for region in Region}
    for phi in functions:
        counts[classify_function(phi).region] += 1
    return counts
