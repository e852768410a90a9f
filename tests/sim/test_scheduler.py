"""Unit tests for warp schedulers."""

from repro.common.config import SchedulerPolicy
from repro.sim.scheduler import (WarpScheduler, derive_scheduler_seed,
                                 ready_cycle)
from repro.sim.warp import ThreadBlock, Warp

#: hazard plans of a one-instruction program reading r0 (every warp
#: sits at pc 0)
PLANS = [((0,), None, (0,), ())]


def make_warps(n):
    block = ThreadBlock(0, block_dim=32 * n, warp_size=32, shared_words=64)
    warps = [
        Warp(i, block, warp_base=32 * i, warp_size=32,
             num_registers=1, num_predicates=1,
             lane_of_slot=list(range(32)), grid_dim=1)
        for i in range(n)
    ]
    block.attach_warps(warps)
    return warps


def block_on_scoreboard(warp, until=10):
    """Give *warp* a pending write of r0 that clears at *until*."""
    warp.scoreboard.mark_reg_write(0, until)
    warp.sb_pc = -1  # the scoreboard changed: drop the memo, as the SM does


class TestRoundRobin:
    def test_cycles_through_warps(self):
        warps = make_warps(3)
        sched = WarpScheduler(SchedulerPolicy.ROUND_ROBIN)
        picks = [sched.select(warps, 0, PLANS).warp_id
                 for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_unready(self):
        warps = make_warps(3)
        warps[1].barrier_blocked = True
        sched = WarpScheduler(SchedulerPolicy.ROUND_ROBIN)
        picks = [sched.select(warps, 0, PLANS).warp_id
                 for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_none_when_all_blocked(self):
        warps = make_warps(2)
        for warp in warps:
            warp.barrier_blocked = True
        sched = WarpScheduler(SchedulerPolicy.ROUND_ROBIN)
        assert sched.select(warps, 0, PLANS) is None

    def test_empty_list(self):
        sched = WarpScheduler(SchedulerPolicy.ROUND_ROBIN)
        assert sched.select([], 0, PLANS) is None

    def test_respects_scoreboard(self):
        warps = make_warps(2)
        block_on_scoreboard(warps[0])
        sched = WarpScheduler(SchedulerPolicy.ROUND_ROBIN)
        assert sched.select(warps, 0, PLANS).warp_id == 1
        assert sched.select(warps, 0, PLANS).warp_id == 1
        assert sched.select(warps, 10, PLANS).warp_id == 0

    def test_ready_cycle_is_memoized_per_pc(self):
        warp, = make_warps(1)
        block_on_scoreboard(warp, until=7)
        assert ready_cycle(warp, PLANS) == 7
        warp.scoreboard.mark_reg_write(0, 9)  # unseen until invalidated
        assert ready_cycle(warp, PLANS) == 7
        warp.sb_pc = -1
        assert ready_cycle(warp, PLANS) == 9


class TestGreedyThenOldest:
    def test_sticks_with_current_warp(self):
        warps = make_warps(3)
        sched = WarpScheduler(SchedulerPolicy.GREEDY_THEN_OLDEST)
        picks = [sched.select(warps, 0, PLANS).warp_id
                 for _ in range(4)]
        assert picks == [0, 0, 0, 0]

    def test_falls_back_to_oldest_when_greedy_stalls(self):
        warps = make_warps(3)
        sched = WarpScheduler(SchedulerPolicy.GREEDY_THEN_OLDEST)
        assert sched.select(warps, 0, PLANS).warp_id == 0
        warps[0].barrier_blocked = True
        assert sched.select(warps, 0, PLANS).warp_id == 1
        # ...and now it greedily stays on warp 1
        assert sched.select(warps, 0, PLANS).warp_id == 1


class TestSeededExploration:
    """GPUMC-style stateless enumeration: seed bypasses the policy."""

    def _picks(self, seed, count=16, n=4):
        warps = make_warps(n)
        sched = WarpScheduler(SchedulerPolicy.ROUND_ROBIN, seed=seed)
        return [sched.select(warps, 0, PLANS).warp_id
                for _ in range(count)]

    def test_same_seed_replays_identically(self):
        assert self._picks(7) == self._picks(7)

    def test_different_seeds_explore_different_interleavings(self):
        sequences = {tuple(self._picks(seed)) for seed in range(8)}
        assert len(sequences) > 1

    def test_unseeded_default_is_plain_round_robin(self):
        assert self._picks(None, count=6, n=3) == [0, 1, 2, 0, 1, 2]

    def test_only_ready_warps_are_candidates(self):
        warps = make_warps(4)
        warps[2].barrier_blocked = True
        sched = WarpScheduler(SchedulerPolicy.ROUND_ROBIN, seed=11)
        picks = {sched.select(warps, 0, PLANS).warp_id
                 for _ in range(32)}
        assert 2 not in picks
        assert picks <= {0, 1, 3}

    def test_none_when_nothing_ready(self):
        warps = make_warps(2)
        for warp in warps:
            warp.barrier_blocked = True
        sched = WarpScheduler(SchedulerPolicy.ROUND_ROBIN, seed=3)
        assert sched.select(warps, 0, PLANS) is None

    def test_stalls_consume_no_decision_index(self):
        """A no-candidate cycle must not shift later decisions, so a
        schedule replays exactly regardless of stall timing."""
        warps = make_warps(3)
        reference = WarpScheduler(SchedulerPolicy.ROUND_ROBIN, seed=5)
        expected = [reference.select(warps, 0, PLANS).warp_id
                    for _ in range(8)]

        stalled = WarpScheduler(SchedulerPolicy.ROUND_ROBIN, seed=5)
        picks = []
        for i in range(8):
            if i == 3:  # interpose a cycle where nothing can issue
                for warp in warps:
                    warp.stalled_until = 1
                assert stalled.select(warps, 0, PLANS) is None
                for warp in warps:
                    warp.stalled_until = 0
            picks.append(stalled.select(warps, 0, PLANS).warp_id)
        assert picks == expected

    def test_derive_scheduler_seed_separates_streams(self):
        subs = {derive_scheduler_seed(42, sm_id, index)
                for sm_id in range(4) for index in range(2)}
        assert len(subs) == 8
        assert derive_scheduler_seed(None, 0, 0) is None
        assert derive_scheduler_seed(42, 1, 0) == \
            derive_scheduler_seed(42, 1, 0)
