"""Antenna-specific, fairness-driven client selection (paper §3.2.5).

MIDAS deliberately selects MU-MIMO clients *without* fresh CSI: antennas are
visited in NAV-expiry order, and each picks -- among backlogged clients whose
packets are tagged to it -- the client with the largest deficit-round-robin
counter.  A client already claimed by an earlier antenna is skipped.  After
the transmission, DRR counters are settled: every served client pays one
TXOP ``T``, and the aggregate service ``n*T`` is credited equally to the
backlogged clients that were left out, steering the long-run schedule toward
fairness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tagging import TagTable


class DeficitRoundRobin:
    """Deficit counters in TXOP units (paper §3.2.5's scheduling policy)."""

    def __init__(self, n_clients: int):
        if n_clients < 1:
            raise ValueError("need at least one client")
        self._counters = np.zeros(n_clients, dtype=float)

    @property
    def counters(self) -> np.ndarray:
        """Current per-client deficit counters (a copy)."""
        return self._counters.copy()

    def pick(self, candidates) -> int | None:
        """Client with the largest deficit among ``candidates``.

        Ties break toward the lowest client index (deterministic).  Returns
        ``None`` when no candidates are offered.
        """
        cand = np.unique(np.asarray(list(candidates), dtype=int))
        if cand.size == 0:
            return None
        # np.unique sorts, so argmax's first-match rule breaks ties toward
        # the lowest client index deterministically.
        best = cand[np.argmax(self._counters[cand])]
        return int(best)

    def pick_eligible(self, candidates, primary_mask, any_mask) -> int | None:
        """:meth:`pick` among the ``candidates`` backlogged in the primary
        class, else among those with any backlog (see
        :meth:`repro.traffic.state.TrafficState.eligibility`).  Under full
        buffer both masks are the membership mask."""
        pick = self.pick([c for c in candidates if primary_mask[c]])
        if pick is None:
            pick = self.pick([c for c in candidates if any_mask[c]])
        return pick

    def settle(self, served, backlogged_unserved, txop_units: float = 1.0) -> None:
        """Apply the paper's counter update after one MU-MIMO round.

        ``served`` clients are decremented by ``T``; each backlogged client
        that was not chosen is incremented by ``n*T/m`` where ``n`` is the
        number of streams just transmitted and ``m`` the number of losers.
        The aggregate counter change is zero whenever ``m > 0``.
        """
        served = np.asarray(list(served), dtype=int)
        losers = np.asarray(list(backlogged_unserved), dtype=int)
        if np.intersect1d(served, losers).size:
            raise ValueError("a client cannot be both served and unserved")
        if served.size == 0:
            return
        self._counters[served] -= txop_units
        if losers.size:
            self._counters[losers] += len(served) * txop_units / losers.size

    def credit(self, clients, txop_units: float = 1.0) -> None:
        """Credit ``clients`` for ``txop_units`` of airtime they waited out.

        The paper's update rule (:meth:`settle`) only moves counters when the
        AP itself transmitted.  When the AP is blocked for a whole round, its
        backlogged clients still watched that round's TXOP go by; crediting
        the waiting time keeps their deficits growing so a long-blocked AP's
        clients win access as soon as their AP next transmits.
        """
        clients = np.asarray(list(clients), dtype=int)
        if clients.size:
            self._counters[clients] += txop_units


class BatchDeficitRoundRobin:
    """Stacked :class:`DeficitRoundRobin`: one counter row per batch item.

    Every operation takes boolean ``(n_items, n_clients)`` masks and applies
    the scalar arithmetic per item under ``np.where`` -- the masked
    control-flow idiom of :mod:`repro.core.batch` -- so item ``i``'s counters
    are bit-identical to a scalar instance fed item ``i``'s rounds.
    """

    def __init__(self, n_items: int, n_clients: int):
        if n_items < 1 or n_clients < 1:
            raise ValueError("need at least one item and one client")
        self._counters = np.zeros((n_items, n_clients), dtype=float)

    @property
    def counters(self) -> np.ndarray:
        """Current ``(n_items, n_clients)`` deficit counters (a copy)."""
        return self._counters.copy()

    def pick(self, candidate_mask: np.ndarray) -> np.ndarray:
        """Largest-deficit candidate per item, ``-1`` where none offered.

        Ties break toward the lowest client index (``argmax`` returns the
        first maximum), matching the scalar :meth:`DeficitRoundRobin.pick`.
        """
        candidate_mask = np.asarray(candidate_mask, dtype=bool)
        masked = np.where(candidate_mask, self._counters, -np.inf)
        picks = np.argmax(masked, axis=1)
        return np.where(candidate_mask.any(axis=1), picks, -1)

    def pick_eligible(
        self, candidate_mask: np.ndarray, primary_mask: np.ndarray, any_mask: np.ndarray
    ) -> np.ndarray:
        """Per-item :meth:`DeficitRoundRobin.pick_eligible`: primary-class
        candidates first, any-backlog fill-in where an item has none
        (``pick`` is pure, so the second pick changes nothing where the
        first lands)."""
        first = self.pick(candidate_mask & primary_mask)
        fallback = self.pick(candidate_mask & any_mask)
        return np.where(first >= 0, first, fallback)

    def settle(
        self,
        served_mask: np.ndarray,
        loser_mask: np.ndarray,
        txop_units: float = 1.0,
    ) -> None:
        """Per-item paper update: served pay ``T``, losers split ``n*T``.

        Items whose ``served_mask`` row is empty are untouched (the scalar
        early return); items with no losers only debit the served.
        """
        served_mask = np.asarray(served_mask, dtype=bool)
        loser_mask = np.asarray(loser_mask, dtype=bool)
        if (served_mask & loser_mask).any():
            raise ValueError("a client cannot be both served and unserved")
        n_served = served_mask.sum(axis=1)
        m_losers = loser_mask.sum(axis=1)
        self._counters = np.where(
            served_mask, self._counters - txop_units, self._counters
        )
        share = n_served * txop_units / np.maximum(m_losers, 1)
        apply = loser_mask & ((n_served > 0) & (m_losers > 0))[:, None]
        self._counters = np.where(
            apply, self._counters + share[:, None], self._counters
        )

    def credit(self, client_mask: np.ndarray, txop_units: float = 1.0) -> None:
        """Masked mirror of :meth:`DeficitRoundRobin.credit`."""
        client_mask = np.asarray(client_mask, dtype=bool)
        self._counters = np.where(
            client_mask, self._counters + txop_units, self._counters
        )


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one antenna-specific selection round."""

    antenna_client_pairs: list[tuple[int, int]]

    @property
    def clients(self) -> list[int]:
        return [client for __, client in self.antenna_client_pairs]

    @property
    def antennas(self) -> list[int]:
        return [antenna for antenna, __ in self.antenna_client_pairs]


def select_clients_for_antennas(
    antennas_in_order,
    tag_table: TagTable,
    drr: DeficitRoundRobin,
    backlogged,
) -> SelectionOutcome:
    """Pick one client per available antenna (paper §3.2.1 Step 3).

    Parameters
    ----------
    antennas_in_order:
        Available antenna indices, ordered by NAV expiry (primary first).
    tag_table:
        Virtual packet tags (a client is considered at an antenna only if
        tagged to it).
    drr:
        Fairness counters; the largest-deficit tagged client wins.
    backlogged:
        Boolean mask or index list of clients with queued packets.

    Returns
    -------
    SelectionOutcome
        ``antenna_client_pairs`` in antenna visit order.  An antenna with no
        eligible client is left unpaired (it still radiates precoded energy
        for the chosen streams -- paper §3.2.5's closing note -- but anchors
        no client of its own).
    """
    backlog_mask = np.zeros(tag_table.n_clients, dtype=bool)
    backlog_mask[np.asarray(list(backlogged), dtype=int)] = True

    chosen: list[tuple[int, int]] = []
    taken = np.zeros(tag_table.n_clients, dtype=bool)
    for antenna in antennas_in_order:
        tagged = tag_table.clients_tagged_to(int(antenna))
        candidates = [c for c in tagged if backlog_mask[c] and not taken[c]]
        client = drr.pick(candidates)
        if client is None:
            continue
        taken[client] = True
        chosen.append((int(antenna), client))
    return SelectionOutcome(antenna_client_pairs=chosen)
