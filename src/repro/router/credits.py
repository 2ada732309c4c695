"""Credit allocation policies for Elastic Router input buffers.

Flow control is credit-based, one credit per flit.  The paper's design
point: "Unlike a conventional router that allocates a static number of
flits per VC, the ER supports an elastic policy that allows a pool of
credits to be shared among multiple VCs, which is effective in reducing
the aggregate flit buffering requirements."

Two policies implement a common interface:

* :class:`StaticCreditPool` — each VC owns ``total // num_vcs`` credits.
* :class:`ElasticCreditPool` — each VC reserves a small minimum (to avoid
  starvation/deadlock) and the remainder floats in a shared pool any VC
  may borrow from.
"""

from __future__ import annotations

from typing import List


class CreditError(Exception):
    """Raised on credit protocol violations (double-free, over-acquire)."""


class CreditPool:
    """Interface: acquire/release one credit for a given VC."""

    def try_acquire(self, vc: int) -> bool:
        raise NotImplementedError

    def release(self, vc: int) -> None:
        raise NotImplementedError

    def available(self, vc: int) -> int:
        """Credits a new flit on ``vc`` could claim right now."""
        raise NotImplementedError

    def used(self, vc: int) -> int:
        """Credits ``vc`` holds right now."""
        raise NotImplementedError

    @property
    def in_use(self) -> int:
        raise NotImplementedError

    def conservation_violations(self) -> List[str]:
        """Describe each broken law of the pool's counts (empty when all
        hold)."""
        raise NotImplementedError


class StaticCreditPool(CreditPool):
    """Conventional fixed per-VC credit allocation."""

    def __init__(self, total_credits: int, num_vcs: int):
        if total_credits < num_vcs:
            raise ValueError("need at least one credit per VC")
        self.num_vcs = num_vcs
        base, extra = divmod(total_credits, num_vcs)
        self._capacity: List[int] = [
            base + (1 if vc < extra else 0) for vc in range(num_vcs)]
        self._used: List[int] = [0] * num_vcs

    def try_acquire(self, vc: int) -> bool:
        if self._used[vc] < self._capacity[vc]:
            self._used[vc] += 1
            return True
        return False

    def release(self, vc: int) -> None:
        if self._used[vc] <= 0:
            raise CreditError(f"release on idle VC {vc}")
        self._used[vc] -= 1

    def available(self, vc: int) -> int:
        return self._capacity[vc] - self._used[vc]

    def used(self, vc: int) -> int:
        return self._used[vc]

    @property
    def in_use(self) -> int:
        return sum(self._used)

    def conservation_violations(self) -> List[str]:
        """Per VC: ``0 <= used <= capacity``."""
        return [f"vc {vc}: {used} credits used of {capacity}"
                for vc, (used, capacity)
                in enumerate(zip(self._used, self._capacity))
                if not 0 <= used <= capacity]


class ElasticCreditPool(CreditPool):
    """Shared credit pool with a reserved minimum per VC.

    A VC first consumes its reserved credits; beyond those it borrows from
    the shared pool.  A release refills the VC's reserved credits *first*
    and only then repays the shared pool: the per-VC reserve is the
    deadlock-avoidance guarantee, so it must be replenished before any
    credit goes back to the communal float.
    """

    def __init__(self, total_credits: int, num_vcs: int,
                 reserved_per_vc: int = 1):
        if reserved_per_vc < 1:
            raise ValueError("each VC needs >= 1 reserved credit "
                             "(deadlock avoidance)")
        if total_credits < num_vcs * reserved_per_vc:
            raise ValueError("total credits below reserved requirement")
        self.num_vcs = num_vcs
        self.reserved_per_vc = reserved_per_vc
        self._reserved_used: List[int] = [0] * num_vcs
        self._shared_capacity = total_credits - num_vcs * reserved_per_vc
        self._shared_used = 0
        #: Per-VC count of credits borrowed from the shared pool.
        self._borrowed: List[int] = [0] * num_vcs

    def try_acquire(self, vc: int) -> bool:
        if self._reserved_used[vc] < self.reserved_per_vc:
            self._reserved_used[vc] += 1
            return True
        if self._shared_used < self._shared_capacity:
            self._shared_used += 1
            self._borrowed[vc] += 1
            return True
        return False

    def release(self, vc: int) -> None:
        # Reserved refills first (paper-faithful): while any reserved
        # credit is outstanding the VC's deadlock-avoidance floor is
        # compromised, so restore it before repaying borrowed shared
        # credits.
        if self._reserved_used[vc] > 0:
            self._reserved_used[vc] -= 1
        elif self._borrowed[vc] > 0:
            self._borrowed[vc] -= 1
            self._shared_used -= 1
        else:
            raise CreditError(f"release on idle VC {vc}")

    def available(self, vc: int) -> int:
        reserved_left = self.reserved_per_vc - self._reserved_used[vc]
        return reserved_left + (self._shared_capacity - self._shared_used)

    def used(self, vc: int) -> int:
        return self._reserved_used[vc] + self._borrowed[vc]

    @property
    def in_use(self) -> int:
        return sum(self._reserved_used) + self._shared_used

    @property
    def shared_in_use(self) -> int:
        return self._shared_used

    def conservation_violations(self) -> List[str]:
        """Per VC: ``0 <= reserved used <= reserved_per_vc`` and
        ``borrowed >= 0``; the shared pool: ``sum(borrowed) == shared
        used <= shared capacity``."""
        broken = [f"vc {vc}: {used} reserved credits used of "
                  f"{self.reserved_per_vc}"
                  for vc, used in enumerate(self._reserved_used)
                  if not 0 <= used <= self.reserved_per_vc]
        broken += [f"vc {vc}: {borrowed} shared credits borrowed"
                   for vc, borrowed in enumerate(self._borrowed)
                   if borrowed < 0]
        borrowed = sum(self._borrowed)
        if borrowed != self._shared_used:
            broken.append(f"{borrowed} shared credits borrowed, "
                          f"{self._shared_used} shared used")
        if self._shared_used > self._shared_capacity:
            broken.append(f"{self._shared_used} shared credits used of "
                          f"{self._shared_capacity}")
        return broken


def make_credit_pool(policy: str, total_credits: int, num_vcs: int,
                     reserved_per_vc: int = 1) -> CreditPool:
    """Factory keyed by policy name: ``"static"`` or ``"elastic"``."""
    if policy == "static":
        return StaticCreditPool(total_credits, num_vcs)
    if policy == "elastic":
        return ElasticCreditPool(total_credits, num_vcs, reserved_per_vc)
    raise ValueError(f"unknown credit policy: {policy!r}")
