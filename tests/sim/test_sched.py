"""Event scheduler and capacity queues: determinism, conservation,
FIFO-vs-PS sojourn shapes."""

import pytest

from repro.sim.sched import (
    AllOf,
    Completion,
    Delay,
    EventScheduler,
    SecondLegWork,
    ServerQueue,
    Work,
)


def _worker(queue, demand_ms, log):
    completion = yield Work(queue, demand_ms)
    log.append(completion)


class TestEventScheduler:
    def test_equal_time_events_fire_in_scheduling_order(self):
        sched = EventScheduler()
        order = []
        sched.call_at(10.0, order.append, "first")
        sched.call_at(10.0, order.append, "second")
        sched.call_at(5.0, order.append, "earlier")
        sched.call_at(10.0, order.append, "third")
        sched.run()
        assert order == ["earlier", "first", "second", "third"]

    def test_run_returns_final_virtual_time(self):
        sched = EventScheduler()
        sched.call_at(123.5, lambda: None)
        assert sched.run() == 123.5

    def test_cannot_schedule_into_the_past(self):
        sched = EventScheduler()
        sched.call_at(100.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.call_at(50.0, lambda: None)

    def test_delay_and_allof_resume_processes(self):
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0)
        trail = []

        def process():
            yield Delay(5.0)
            trail.append(("woke", sched.now))
            completions = yield AllOf(
                [Work(queue, 10.0), Work(queue, 20.0), Delay(1.0)]
            )
            trail.append(("joined", sched.now))
            assert completions[2] is None  # plain delays carry no result
            assert all(
                isinstance(c, Completion) for c in completions[:2]
            )

        sched.spawn(process())
        sched.run()
        assert trail[0] == ("woke", 5.0)
        # PS over {10, 20}: sharing until the 10-unit job departs at
        # t=25, then the survivor's last 10 units run alone until 35.
        assert trail[1] == ("joined", 35.0)

    def test_spawn_at_defers_first_step(self):
        sched = EventScheduler()
        seen = []

        def process():
            seen.append(sched.now)
            yield Delay(0.0)

        sched.spawn(process(), at_ms=42.0)
        sched.run()
        assert seen == [42.0]

    def test_replay_is_deterministic(self):
        def drive():
            sched = EventScheduler()
            fifo = ServerQueue("F", sched, capacity=2.0, discipline="fifo")
            ps = ServerQueue("P", sched, capacity=2.0, discipline="ps")
            log = []
            for index in range(6):
                sched.spawn(
                    _worker(fifo, 10.0 + index, log), at_ms=index * 3.0
                )
                sched.spawn(
                    _worker(ps, 8.0 + index, log), at_ms=index * 3.0
                )
            sched.run()
            return [
                (c.queue, c.queued_ms, c.finished_ms, c.sojourn_ms)
                for c in log
            ]

        assert drive() == drive()


class TestServerQueue:
    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_capacity_conservation(self, discipline):
        """Total busy time == total demand / capacity, every job is
        served exactly once, and the queue drains empty."""
        sched = EventScheduler()
        queue = ServerQueue(
            "S", sched, capacity=2.0, discipline=discipline
        )
        demands = [10.0, 4.0, 26.0, 8.0, 2.0]
        log = []
        for index, demand in enumerate(demands):
            sched.spawn(_worker(queue, demand, log), at_ms=index * 1.0)
        end = sched.run()
        assert len(log) == len(demands)
        assert queue.served == len(demands)
        assert queue.depth == 0
        assert queue.busy_ms == pytest.approx(
            sum(demands) / queue.capacity
        )
        # A single server can't finish faster than its capacity allows.
        assert end >= sum(demands) / queue.capacity

    def test_uncontended_sojourn_is_exactly_service_time(self):
        """The bit-exactness contract behind sequential equivalence: a
        lone job's sojourn must be ``demand / capacity`` exactly, even
        when the arrival instant has an awkward float representation."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=3.0)
        log = []
        sched.spawn(_worker(queue, 10.0, log), at_ms=0.1 + 0.2)  # 0.30000...4
        sched.run()
        (completion,) = log
        assert completion.contended is False
        assert completion.sojourn_ms == 10.0 / 3.0
        assert completion.wait_ms == 0.0

    def test_fifo_serialises_in_arrival_order(self):
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0, discipline="fifo")
        log = []
        for _ in range(3):
            sched.spawn(_worker(queue, 10.0, log), at_ms=0.0)
        sched.run()
        assert [c.finished_ms for c in log] == [10.0, 20.0, 30.0]
        assert [c.sojourn_ms for c in log] == [10.0, 20.0, 30.0]
        assert [c.wait_ms for c in log] == [0.0, 10.0, 20.0]
        assert log[0].contended is False
        assert log[1].contended and log[2].contended

    def test_ps_shares_capacity_equally(self):
        """Two equal jobs arriving together each take twice their solo
        service time and finish simultaneously — the egalitarian-PS
        signature FIFO cannot produce."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0, discipline="ps")
        log = []
        for _ in range(2):
            sched.spawn(_worker(queue, 10.0, log), at_ms=0.0)
        sched.run()
        assert [c.finished_ms for c in log] == [20.0, 20.0]
        assert all(c.contended for c in log)
        assert all(c.sojourn_ms == pytest.approx(20.0) for c in log)

    def test_ps_vs_fifo_sojourn_shape(self):
        """Same workload, both disciplines: FIFO lets the short job jump
        out fast behind nothing, PS drags every resident; total drain
        time is identical (work conservation)."""

        def drive(discipline):
            sched = EventScheduler()
            queue = ServerQueue(
                "S", sched, capacity=1.0, discipline=discipline
            )
            log = []
            sched.spawn(_worker(queue, 30.0, log), at_ms=0.0)
            sched.spawn(_worker(queue, 3.0, log), at_ms=1.0)
            sched.run()
            return {c.demand_ms: c.sojourn_ms for c in log}

        fifo, ps = drive("fifo"), drive("ps")
        # FIFO: the short job waits out the long one's full residual.
        assert fifo[3.0] == pytest.approx(32.0)
        assert fifo[30.0] == pytest.approx(30.0)
        # PS: the short job only pays double while sharing (sojourn 6);
        # the long job pays for the company instead (sojourn 33).
        assert ps[3.0] == pytest.approx(6.0)
        assert ps[30.0] == pytest.approx(33.0)
        # Work conservation: both disciplines drain the 33 ms of demand
        # at the same instant, t = 33.
        assert 1.0 + fifo[3.0] == pytest.approx(33.0)
        assert ps[30.0] == pytest.approx(33.0)

    def test_ps_departure_ties_break_by_arrival_order(self):
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0, discipline="ps")
        log = []
        for _ in range(3):
            sched.spawn(_worker(queue, 12.0, log), at_ms=0.0)
        sched.run()
        # Identical demands: all depart at 36 in submission order.
        assert [c.finished_ms for c in log] == [36.0, 36.0, 36.0]
        assert [c.depth_at_arrival for c in log] == [1, 2, 3]

    def test_backlog_ms_predicts_drain_time(self):
        sched = EventScheduler()
        fifo = ServerQueue("F", sched, capacity=2.0, discipline="fifo")
        ps = ServerQueue("P", sched, capacity=2.0, discipline="ps")
        log = []
        for queue in (fifo, ps):
            sched.spawn(_worker(queue, 10.0, log), at_ms=0.0)
            sched.spawn(_worker(queue, 6.0, log), at_ms=0.0)
        sched.run(until_ms=0.0)
        assert fifo.backlog_ms(0.0) == pytest.approx(8.0)
        assert ps.backlog_ms(0.0) == pytest.approx(8.0)
        sched.run()
        assert fifo.backlog_ms(sched.now) == 0.0
        assert ps.backlog_ms(sched.now) == 0.0

    def test_max_depth_tracks_peak_concurrency(self):
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0, discipline="ps")
        log = []
        for index in range(4):
            sched.spawn(_worker(queue, 5.0, log), at_ms=float(index))
        sched.run()
        assert queue.max_depth == 4

    def test_rejects_invalid_configuration(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            ServerQueue("S", sched, capacity=0.0)
        with pytest.raises(ValueError):
            ServerQueue("S", sched, discipline="lifo")
        queue = ServerQueue("S", sched)
        with pytest.raises(ValueError):
            queue.submit(-1.0, lambda completion: None)
        with pytest.raises(ValueError):
            Work(queue, -2.0)
        with pytest.raises(ValueError):
            Delay(-1.0)


class TestCancellation:
    def test_fifo_cancel_queued_job_restacks_tail(self):
        """Cancelling a queued job moves later arrivals up; their
        completions fire at the re-derived earlier instants."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0, discipline="fifo")
        log = []
        jobs = {}

        def driver():
            jobs["a"] = queue.submit(10.0, log.append)
            jobs["b"] = queue.submit(10.0, log.append)
            jobs["c"] = queue.submit(10.0, log.append)
            yield Delay(2.0)
            wasted = queue.cancel(jobs["b"])
            assert wasted == 0.0  # never reached the server

        sched.spawn(driver())
        sched.run()
        assert [c.finished_ms for c in log] == [10.0, 20.0]
        assert queue.served == 2
        assert queue.cancelled_jobs == 1
        assert queue.depth == 0

    def test_fifo_cancel_in_service_releases_capacity(self):
        """Cancelling the job *in service* frees the server immediately:
        the next job starts at the cancel instant, and the wasted time
        equals the service already consumed."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0, discipline="fifo")
        log = []
        jobs = {}

        def driver():
            jobs["a"] = queue.submit(10.0, log.append)
            jobs["b"] = queue.submit(5.0, log.append)
            yield Delay(4.0)
            wasted = queue.cancel(jobs["a"])
            assert wasted == 4.0

        sched.spawn(driver())
        sched.run()
        assert len(log) == 1
        # b starts at the cancel instant (t=4) and runs 5ms.
        assert log[0].finished_ms == 9.0
        assert queue.backlog_ms(sched.now) == 0.0

    def test_ps_cancel_speeds_up_survivor(self):
        """Removing one of two PS residents doubles the survivor's rate."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0, discipline="ps")
        log = []
        jobs = {}

        def driver():
            jobs["a"] = queue.submit(10.0, log.append)
            jobs["b"] = queue.submit(10.0, log.append)
            yield Delay(4.0)
            # Both have burned 2ms of service (rate 1/2 each).
            wasted = queue.cancel(jobs["b"])
            assert wasted == pytest.approx(2.0)

        sched.spawn(driver())
        sched.run()
        assert len(log) == 1
        # Survivor: 2ms done at t=4, 8ms left at full rate -> t=12.
        assert log[0].finished_ms == pytest.approx(12.0)

    def test_cancel_completed_or_cancelled_job_is_noop(self):
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0, discipline="fifo")
        done = []
        job = queue.submit(5.0, done.append)
        sched.run()
        assert len(done) == 1
        assert queue.cancel(job) == 0.0  # already completed
        job2 = queue.submit(5.0, done.append)
        queue.cancel(job2)
        assert queue.cancel(job2) == 0.0  # already cancelled
        sched.run()
        assert len(done) == 1


def _no_disarm():
    pass


class TestHedgedWork:
    """Race mode: a timer-armed backup; the first completion wins."""

    def _hedge(self, sched, primary_queue, backup_queue, primary_ms,
               backup_ms, after_ms, outcomes, decline=False):
        def arm(fire):
            sched.call_later(after_ms, fire)
            return _no_disarm

        def build(t_fire, consumed_ms):
            assert consumed_ms == 0.0  # a race never peeks
            if decline:
                return None
            return Work(backup_queue, backup_ms)

        def process():
            outcome = yield SecondLegWork(
                Work(primary_queue, primary_ms), arm, build, race=True
            )
            outcomes.append(outcome)

        sched.spawn(process())

    def test_backup_fires_only_after_timeout(self):
        """A fast primary completes before the timer: no hedge, and the
        completion is bit-identical to a plain Work submission."""
        sched = EventScheduler()
        fast = ServerQueue("S1", sched, capacity=1.0)
        backup = ServerQueue("S2", sched, capacity=1.0)
        outcomes = []
        self._hedge(sched, fast, backup, 5.0, 5.0, 10.0, outcomes)
        sched.run()
        (outcome,) = outcomes
        assert not outcome.leg_won
        assert not outcome.fired
        assert outcome.fired_ms is None
        assert outcome.cancelled_ms == 0.0
        assert backup.served == 0 and backup.max_depth == 0
        assert outcome.completion.sojourn_ms == 5.0
        # The stale timer still fires, and run() advances the clock to it.
        assert sched.now == 10.0

    def test_backup_wins_when_primary_stalls(self):
        """Primary queued behind a long backlog: the hedge fires at the
        timeout, the idle backup wins, and the primary's unstarted work
        is released (zero waste)."""
        sched = EventScheduler()
        slow = ServerQueue("S1", sched, capacity=1.0, discipline="fifo")
        backup = ServerQueue("S2", sched, capacity=1.0, discipline="fifo")
        blocker = []
        slow.submit(100.0, blocker.append)  # pre-existing backlog
        outcomes = []
        self._hedge(sched, slow, backup, 10.0, 10.0, 20.0, outcomes)
        sched.run()
        (outcome,) = outcomes
        assert outcome.leg_won
        assert outcome.fired
        assert outcome.fired_ms == 20.0
        assert outcome.completion.finished_ms == 30.0
        assert outcome.cancelled_ms == 0.0  # primary never started
        assert slow.cancelled_jobs == 1
        # The blocker still completes normally.
        assert blocker and blocker[0].finished_ms == 100.0

    def test_losing_backup_is_cancelled_and_capacity_released(self):
        """Primary finishes first after the hedge fired: the backup is
        cancelled and its queue drains immediately."""
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0, discipline="fifo")
        backup = ServerQueue("S2", sched, capacity=1.0, discipline="fifo")
        outcomes = []
        # Primary takes 30ms; hedge fires at 20ms; backup would take
        # 50ms, so the primary wins at t=30 and the backup (10ms into
        # its service) is cancelled.
        self._hedge(sched, primary, backup, 30.0, 50.0, 20.0, outcomes)
        sched.run()
        (outcome,) = outcomes
        assert not outcome.leg_won
        assert outcome.fired
        assert outcome.cancelled_ms == pytest.approx(10.0)
        assert backup.cancelled_jobs == 1
        assert backup.depth == 0
        assert backup.backlog_ms(sched.now) == 0.0

    def test_declined_factory_leaves_primary_untouched(self):
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0)
        backup = ServerQueue("S2", sched, capacity=1.0)
        outcomes = []
        self._hedge(
            sched, primary, backup, 30.0, 10.0, 5.0, outcomes, decline=True
        )
        sched.run()
        (outcome,) = outcomes
        assert not outcome.leg_won
        assert not outcome.fired
        assert outcome.completion.sojourn_ms == 30.0
        assert backup.served == 0


class _Trigger:
    """An externally fired trigger that records its arming and disarming."""

    def __init__(self):
        self.fire = None
        self.disarms = 0

    def arm(self, fire):
        self.fire = fire
        return self.disarm

    def disarm(self):
        self.disarms += 1


class TestCancelPrimaryLeg:
    """Re-route mode: firing the leg cancels the primary."""

    def _run(self, sched, primary_queue, primary_ms, trigger, build, outcomes,
             arm=None):
        def process():
            outcome = yield SecondLegWork(
                Work(primary_queue, primary_ms),
                arm or trigger.arm,
                build,
                race=False,
            )
            outcomes.append(outcome)

        sched.spawn(process())

    def test_unfired_leg_is_a_plain_work_yield(self):
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0)
        trigger = _Trigger()
        outcomes = []
        self._run(sched, primary, 20.0, trigger, lambda t, c: None, outcomes)
        sched.run()
        (outcome,) = outcomes
        assert not outcome.fired and not outcome.leg_won
        assert outcome.cancelled_ms == 0.0
        assert outcome.completion.sojourn_ms == 20.0
        assert trigger.disarms == 1

    def test_fire_cancels_primary_and_reports_its_consumed_service(self):
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0, discipline="fifo")
        target = ServerQueue("S2", sched, capacity=1.0, discipline="fifo")
        trigger = _Trigger()
        peeked = []

        def build(t_fire, consumed_ms):
            peeked.append((t_fire, consumed_ms))
            return Work(target, 5.0)

        outcomes = []
        self._run(sched, primary, 30.0, trigger, build, outcomes)
        sched.call_at(12.0, lambda: trigger.fire())
        sched.run()
        (outcome,) = outcomes
        assert peeked == [(12.0, 12.0)]
        assert outcome.fired and outcome.leg_won
        assert outcome.fired_ms == 12.0
        # The outcome's consumed service is what ``cancel`` returned,
        # which is what the builder was shown before committing.
        assert outcome.cancelled_ms == 12.0
        assert primary.cancelled_jobs == 1 and primary.depth == 0
        assert primary.busy_ms == 12.0
        assert outcome.completion.queue == "S2"
        assert outcome.completion.finished_ms == 17.0
        assert trigger.disarms == 1

    def test_consumed_matches_cancel_under_processor_sharing(self):
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0, discipline="ps")
        target = ServerQueue("S2", sched, capacity=1.0)
        primary.submit(100.0, lambda c: None)  # shares the server
        trigger = _Trigger()
        peeked = []

        def build(t_fire, consumed_ms):
            peeked.append(consumed_ms)
            return Work(target, 1.0)

        outcomes = []
        self._run(sched, primary, 40.0, trigger, build, outcomes)
        sched.call_at(10.0, lambda: trigger.fire())
        sched.run()
        (outcome,) = outcomes
        assert peeked == [5.0]  # half the server for 10ms
        assert outcome.cancelled_ms == peeked[0]

    def test_declined_fire_stays_armed_and_a_later_fire_succeeds(self):
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0, discipline="fifo")
        target = ServerQueue("S2", sched, capacity=1.0, discipline="fifo")
        trigger = _Trigger()
        calls = []

        def build(t_fire, consumed_ms):
            calls.append(t_fire)
            return None if len(calls) == 1 else Work(target, 5.0)

        outcomes = []
        self._run(sched, primary, 30.0, trigger, build, outcomes)
        sched.call_at(5.0, lambda: trigger.fire())
        sched.call_at(10.0, lambda: trigger.fire())
        sched.run()
        (outcome,) = outcomes
        assert calls == [5.0, 10.0]
        assert trigger.disarms == 1  # the decline did not disarm
        assert outcome.fired_ms == 10.0
        assert outcome.completion.finished_ms == 15.0

    def test_at_most_one_fire(self):
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0, discipline="fifo")
        target = ServerQueue("S2", sched, capacity=1.0, discipline="fifo")
        trigger = _Trigger()
        calls = []

        def build(t_fire, consumed_ms):
            calls.append(t_fire)
            return Work(target, 20.0)

        outcomes = []
        self._run(sched, primary, 30.0, trigger, build, outcomes)
        for t_ms in (5.0, 10.0, 40.0):
            sched.call_at(t_ms, lambda: trigger.fire())
        sched.run()
        (outcome,) = outcomes
        assert calls == [5.0]
        assert target.served == 1 and primary.cancelled_jobs == 1
        assert trigger.disarms == 1

    def test_fire_during_arm_is_honoured_then_disarmed(self):
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0, discipline="fifo")
        target = ServerQueue("S2", sched, capacity=1.0, discipline="fifo")
        trigger = _Trigger()

        def arm(fire):
            disarm = trigger.arm(fire)
            fire()  # the trigger is already tripped when installed
            return disarm

        outcomes = []
        self._run(
            sched, primary, 30.0, trigger,
            lambda t, c: Work(target, 5.0), outcomes, arm=arm,
        )
        sched.run()
        (outcome,) = outcomes
        assert outcome.fired_ms == 0.0 and outcome.leg_won
        assert outcome.cancelled_ms == 0.0
        assert outcome.completion.finished_ms == 5.0
        assert trigger.disarms == 1

    def test_declined_fire_during_arm_stays_armed(self):
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0, discipline="fifo")
        trigger = _Trigger()

        def arm(fire):
            disarm = trigger.arm(fire)
            fire()
            return disarm

        outcomes = []
        self._run(
            sched, primary, 30.0, trigger, lambda t, c: None, outcomes,
            arm=arm,
        )
        assert trigger.disarms == 0
        sched.run()
        (outcome,) = outcomes
        assert not outcome.fired
        assert outcome.completion.sojourn_ms == 30.0
        assert trigger.disarms == 1

    def test_fire_after_settle_is_ignored(self):
        sched = EventScheduler()
        primary = ServerQueue("S1", sched, capacity=1.0)
        trigger = _Trigger()
        calls = []
        outcomes = []
        self._run(
            sched, primary, 10.0, trigger,
            lambda t, c: calls.append(t), outcomes,
        )
        sched.call_at(20.0, lambda: trigger.fire())
        sched.run()
        assert calls == [] and len(outcomes) == 1
        assert trigger.disarms == 1
