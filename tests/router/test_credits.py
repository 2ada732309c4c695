"""Tests for static and elastic credit pools."""

import pytest

from repro.router.credits import (
    CreditError,
    ElasticCreditPool,
    StaticCreditPool,
    make_credit_pool,
)


class TestStaticCreditPool:
    def test_even_split(self):
        pool = StaticCreditPool(total_credits=8, num_vcs=2)
        assert pool.available(0) == 4
        assert pool.available(1) == 4

    def test_uneven_split_distributes_remainder(self):
        pool = StaticCreditPool(total_credits=5, num_vcs=2)
        assert pool.available(0) + pool.available(1) == 5

    def test_vc_cannot_exceed_its_share(self):
        pool = StaticCreditPool(total_credits=4, num_vcs=2)
        assert pool.try_acquire(0)
        assert pool.try_acquire(0)
        assert not pool.try_acquire(0)   # VC 0 exhausted
        assert pool.try_acquire(1)       # VC 1 unaffected

    def test_release_restores(self):
        pool = StaticCreditPool(total_credits=2, num_vcs=2)
        assert pool.try_acquire(0)
        assert not pool.try_acquire(0)
        pool.release(0)
        assert pool.try_acquire(0)

    def test_release_idle_vc_raises(self):
        pool = StaticCreditPool(total_credits=2, num_vcs=2)
        with pytest.raises(CreditError):
            pool.release(0)

    def test_requires_credit_per_vc(self):
        with pytest.raises(ValueError):
            StaticCreditPool(total_credits=1, num_vcs=2)

    def test_in_use_accounting(self):
        pool = StaticCreditPool(total_credits=4, num_vcs=2)
        pool.try_acquire(0)
        pool.try_acquire(1)
        assert pool.in_use == 2


class TestElasticCreditPool:
    def test_vc_can_borrow_beyond_reservation(self):
        pool = ElasticCreditPool(total_credits=8, num_vcs=2,
                                 reserved_per_vc=1)
        # VC 0 can take its 1 reserved + all 6 shared = 7.
        taken = 0
        while pool.try_acquire(0):
            taken += 1
        assert taken == 7

    def test_reservation_protects_other_vc(self):
        pool = ElasticCreditPool(total_credits=8, num_vcs=2,
                                 reserved_per_vc=1)
        while pool.try_acquire(0):
            pass
        # VC 1's reserved credit is still there: no starvation.
        assert pool.try_acquire(1)
        assert not pool.try_acquire(1)

    def test_release_refills_reserved_before_shared(self):
        """Releases restore the VC's deadlock-avoidance reserve first;
        only then do they repay borrowed shared credits."""
        pool = ElasticCreditPool(total_credits=6, num_vcs=2,
                                 reserved_per_vc=1)
        for _ in range(5):  # 1 reserved + 4 shared
            assert pool.try_acquire(0)
        assert pool.shared_in_use == 4
        pool.release(0)
        # Reserved refilled first: the shared pool is still fully lent out.
        assert pool.shared_in_use == 4
        assert pool.available(0) == 1
        pool.release(0)
        # Reserve already full, so this one repays the shared pool.
        assert pool.shared_in_use == 3
        assert pool.try_acquire(1)  # reserved
        assert pool.try_acquire(1)  # shared, returned by VC 0

    def test_release_ordering_under_churn(self):
        """Reserved-vs-borrowed accounting stays consistent while VCs
        acquire and release in interleaved bursts."""
        pool = ElasticCreditPool(total_credits=12, num_vcs=3,
                                 reserved_per_vc=2)
        held = {vc: 0 for vc in range(3)}
        # Deterministic churn: repeated waves of acquire-most / free-some.
        for wave in range(40):
            for vc in range(3):
                want = (wave + vc) % 5
                while held[vc] < want and pool.try_acquire(vc):
                    held[vc] += 1
            for vc in range(3):
                drop = (wave * 7 + vc) % 3
                for _ in range(min(drop, held[vc])):
                    pool.release(vc)
                    held[vc] -= 1
            assert pool.in_use == sum(held.values())
            assert 0 <= pool.shared_in_use <= 6
            assert pool.shared_in_use == sum(pool._borrowed)
            for vc in range(3):
                assert pool._reserved_used[vc] + pool._borrowed[vc] \
                    == held[vc]
                # Deadlock avoidance: any VC with free reserve can always
                # acquire, no matter how lent-out the shared pool is.
                if pool._reserved_used[vc] < 2:
                    assert pool.try_acquire(vc)
                    pool.release(vc)
        # Drain everything; the pool must return to pristine state.
        for vc in range(3):
            while held[vc]:
                pool.release(vc)
                held[vc] -= 1
        assert pool.in_use == 0
        assert pool.shared_in_use == 0
        assert all(pool.available(vc) == 2 + 6 for vc in range(3))

    def test_release_idle_raises(self):
        pool = ElasticCreditPool(total_credits=4, num_vcs=2)
        with pytest.raises(CreditError):
            pool.release(1)

    def test_reserved_minimum_required(self):
        with pytest.raises(ValueError):
            ElasticCreditPool(total_credits=1, num_vcs=2)
        with pytest.raises(ValueError):
            ElasticCreditPool(total_credits=4, num_vcs=2,
                              reserved_per_vc=0)

    def test_elastic_beats_static_for_bursty_single_vc(self):
        """The paper's design point: with the same total buffering, an
        elastic pool gives one busy VC far more credits than a static
        split."""
        total, vcs = 16, 4
        static = StaticCreditPool(total, vcs)
        elastic = ElasticCreditPool(total, vcs, reserved_per_vc=1)
        static_burst = 0
        while static.try_acquire(0):
            static_burst += 1
        elastic_burst = 0
        while elastic.try_acquire(0):
            elastic_burst += 1
        assert static_burst == 4
        assert elastic_burst == 13
        assert elastic_burst > 3 * static_burst


class TestFactory:
    def test_factory_static(self):
        assert isinstance(make_credit_pool("static", 8, 2),
                          StaticCreditPool)

    def test_factory_elastic(self):
        assert isinstance(make_credit_pool("elastic", 8, 2),
                          ElasticCreditPool)

    def test_factory_unknown(self):
        with pytest.raises(ValueError):
            make_credit_pool("magic", 8, 2)


class TestConservationLaws:
    def test_laws_hold_through_acquire_release_churn(self):
        for pool in (StaticCreditPool(7, 3), ElasticCreditPool(7, 3, 2)):
            held = []
            for step in range(40):
                vc = step * 5 % 3
                if step % 3 == 2 and held:
                    pool.release(held.pop(0))
                elif pool.try_acquire(vc):
                    held.append(vc)
                assert pool.conservation_violations() == []

    def test_static_reports_negative_use(self):
        pool = StaticCreditPool(total_credits=4, num_vcs=2)
        pool._used[1] = -1
        assert pool.conservation_violations() == [
            "vc 1: -1 credits used of 2"]

    def test_static_reports_use_over_capacity(self):
        pool = StaticCreditPool(total_credits=4, num_vcs=2)
        pool._used[0] = 3
        assert pool.conservation_violations() == [
            "vc 0: 3 credits used of 2"]

    def test_elastic_reports_reserved_over_its_floor(self):
        pool = ElasticCreditPool(total_credits=6, num_vcs=2,
                                 reserved_per_vc=1)
        pool._reserved_used[1] = 2
        assert pool.conservation_violations() == [
            "vc 1: 2 reserved credits used of 1"]

    def test_elastic_reports_negative_reserved_use(self):
        pool = ElasticCreditPool(total_credits=6, num_vcs=2)
        pool._reserved_used[0] = -1
        assert pool.conservation_violations() == [
            "vc 0: -1 reserved credits used of 1"]

    def test_elastic_reports_borrowed_not_matching_shared(self):
        pool = ElasticCreditPool(total_credits=6, num_vcs=2)
        for _ in range(3):
            assert pool.try_acquire(0)
        pool._borrowed[0] -= 1
        assert pool.conservation_violations() == [
            "1 shared credits borrowed, 2 shared used"]

    def test_elastic_reports_negative_borrow(self):
        pool = ElasticCreditPool(total_credits=6, num_vcs=2)
        pool._borrowed[0] = -1
        pool._shared_used = -1
        assert pool.conservation_violations() == [
            "vc 0: -1 shared credits borrowed"]

    def test_elastic_reports_shared_over_capacity(self):
        pool = ElasticCreditPool(total_credits=4, num_vcs=2)
        pool._borrowed[1] = 3
        pool._shared_used = 3
        assert pool.conservation_violations() == [
            "3 shared credits used of 2"]
