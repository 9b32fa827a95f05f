"""Conservation checks and exact counts over one repeat's IterationRecords.

The identities are the ones the simulator promises on every run:

- population balance: ``active_t = active_{t-1} - departures_{t-1} + joins_t``;
- serverfi fragment ledger: cumulative draws equal the inventory held, plus
  ``k`` fragments per staked NFT, plus the fragments departed players took;
- serverfi credit balance: credit carried in, plus value contributed, minus
  ``lam`` per draw, minus the credit departed players took, is the credit
  carried out;
- retention payout: ``payout_total = pool_share * window_total_sum``.

Counts are exact integers, so two runs of the same code must agree on them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from gamefi_sim.core import IterationRecord
from gamefi_sim.harness import ExperimentSpec

# relative tolerance of the float identities (payout and credit balance)
REL_TOL = 1e-9

COUNT_NAMES = (
    "agent_steps",
    "joins",
    "departures",
    "serverfi.draws",
    "serverfi.nfts_minted",
    "retention.winners",
)


def check_repeat(spec: ExperimentSpec, records: Sequence[IterationRecord]) -> List[str]:
    """Return a description of every identity the repeat violates."""
    problems: List[str] = []
    if len(records) != spec.iterations:
        problems.append(f"{len(records)} records, expected {spec.iterations}")
    active = departures = 0
    drawn = departed_fragments = 0
    credit = 0.0
    k, lam = spec.serverfi.k, spec.serverfi.lam
    for t, record in enumerate(records, start=1):
        extra = record.extra
        where = f"iteration {t}"
        if record.iteration != t:
            problems.append(f"{where}: record says iteration {record.iteration}")
        active = active - departures + record.joins
        if record.active_players != active:
            problems.append(f"{where}: active {record.active_players}, balance gives {active}")
        departures = record.departures
        if spec.model == "serverfi":
            drawn += int(extra["draws"])
            departed_fragments += int(extra["fragments_departed"])
            held = int(extra["inventory_total"]) + k * int(extra["staked_total"])
            if drawn != held + departed_fragments:
                problems.append(f"{where}: {drawn} fragments drawn, {held + departed_fragments} held or departed")
            inflow = credit + record.total_value
            credit = inflow - lam * extra["draws"] - extra["credit_departed"]
            if abs(credit - extra["draw_credit_total"]) > REL_TOL * max(inflow, 1.0):
                problems.append(f"{where}: credit {extra['draw_credit_total']!r}, balance gives {credit!r}")
            credit = extra["draw_credit_total"]
        elif record.active_players:
            basis = spec.retention.pool_share * extra["window_total_sum"]
            if abs(extra["payout_total"] - basis) > REL_TOL * max(basis, 1.0):
                problems.append(f"{where}: payout {extra['payout_total']!r}, pool share gives {basis!r}")
    return problems


def count_repeat(spec: ExperimentSpec, records: Sequence[IterationRecord]) -> Dict[str, int]:
    """Exact event counts of one repeat, keyed by :data:`COUNT_NAMES`."""
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for record in records:
        counts["agent_steps"] += record.active_players
        counts["joins"] += record.joins
        counts["departures"] += record.departures
    if spec.model == "serverfi":
        for record in records:
            counts["serverfi.draws"] += int(record.extra["draws"])
            counts["serverfi.nfts_minted"] += int(record.extra["nfts_minted"])
    else:
        counts["retention.winners"] = sum(int(r.extra["winner_count"]) for r in records)
    return counts
