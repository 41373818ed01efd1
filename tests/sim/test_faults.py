"""Unit tests for the fault-injection layer and the sim-clock watchdog."""

import pytest

from repro.sim.channel import Channel
from repro.sim.errors import WatchdogTimeout
from repro.sim.faults import FaultAction, FaultInjector, FaultPlan, install_fault_injector
from repro.sim.process import Environment
from repro.sim.watchdog import drain_within, get_within, guarded
from repro.net.link import (
    ConnectionReset,
    LinkSevered,
    MessageDropped,
    NetworkError,
    StreamTruncated,
)


# ----------------------------------------------------------------------
# FaultAction / FaultPlan
# ----------------------------------------------------------------------
def test_action_validates_kind_and_nth():
    with pytest.raises(ValueError):
        FaultAction("explode")
    with pytest.raises(ValueError):
        FaultAction("drop", nth=0)


def test_action_filters():
    act = FaultAction("drop", src="a", dst="b", tag="CommandBatch")
    assert act.matches("a", "b", "CommandBatch")
    assert not act.matches("a", "b", "CommandBatchResponse")  # exact, not prefix
    assert not act.matches("x", "b", "CommandBatch")
    assert not act.matches("a", "x", "CommandBatch")
    prefix = FaultAction("truncate", tag_prefix="bulk:")
    assert prefix.matches("a", "b", "bulk:CoalescedBufferDownload")
    assert not prefix.matches("a", "b", "stream-init")
    wildcard = FaultAction("drop")
    assert wildcard.matches("anyone", "anywhere", "anything")


def test_plan_from_seed_is_replayable():
    assert FaultPlan.from_seed(7) == FaultPlan.from_seed(7)
    assert FaultPlan.from_seed(7) != FaultPlan.from_seed(8)
    plan = FaultPlan.from_seed(7)
    assert plan.actions and all(a.kind in ("drop", "delay") for a in plan.actions)
    assert plan.max_transfers is not None


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
def test_drop_fires_once_on_nth_match():
    inj = FaultInjector(FaultPlan([FaultAction("drop", nth=2, tag="X")]))
    assert inj.on_transfer("a", "b", "X", 10) == 0.0  # first match: armed, not fired
    with pytest.raises(MessageDropped):
        inj.on_transfer("a", "b", "X", 10)
    # One-shot: the third matching transfer passes.
    assert inj.on_transfer("a", "b", "X", 10) == 0.0
    assert inj.injected_drops == 1
    assert inj.fired_count == 1


def test_injector_is_replayable():
    def run():
        inj = FaultInjector(FaultPlan([FaultAction("drop", nth=3, tag="X")]))
        outcomes = []
        for _ in range(5):
            try:
                inj.on_transfer("a", "b", "X", 1)
                outcomes.append("ok")
            except NetworkError:
                outcomes.append("drop")
        return outcomes, inj.snapshot()

    assert run() == run()


def test_delay_returns_extra_latency():
    inj = FaultInjector(FaultPlan([FaultAction("delay", delay=0.25)]))
    assert inj.on_transfer("a", "b", "X", 1) == 0.25
    assert inj.on_transfer("a", "b", "X", 1) == 0.0
    assert inj.injected_delays == 1


def test_truncate_raises_stream_truncated():
    inj = FaultInjector(FaultPlan([FaultAction("truncate", tag_prefix="bulk:")]))
    assert inj.on_transfer("a", "b", "CommandBatch", 1) == 0.0
    with pytest.raises(StreamTruncated):
        inj.on_transfer("a", "b", "bulk:Download", 1)


def test_sever_blocks_both_directions_until_healed():
    inj = FaultInjector(FaultPlan([FaultAction("sever", tag="X", heal_after=2)]))
    with pytest.raises(LinkSevered):
        inj.on_transfer("a", "b", "X", 1)
    with pytest.raises(LinkSevered):  # reverse direction also blocked
        inj.on_transfer("b", "a", "anything", 1)
    with pytest.raises(LinkSevered):  # heal countdown reaches zero here
        inj.on_transfer("a", "b", "X", 1)
    assert inj.on_transfer("a", "b", "X", 1) == 0.0  # healed
    assert inj.links_severed == 1
    assert inj.links_healed == 1


def test_sever_permanent_and_explicit_heal():
    inj = FaultInjector(FaultPlan([FaultAction("sever", tag="X", heal_after=None)]))
    with pytest.raises(LinkSevered):
        inj.on_transfer("a", "b", "X", 1)
    for _ in range(5):
        with pytest.raises(LinkSevered):
            inj.on_transfer("a", "b", "X", 1)
    inj.heal("b", "a")  # order-insensitive
    assert inj.on_transfer("a", "b", "X", 1) == 0.0
    assert inj.links_healed == 1
    inj.heal("a", "b")  # healing a healthy link is a no-op
    assert inj.links_healed == 1


def test_crash_runs_hook_and_rejects_until_restart():
    inj = FaultInjector(FaultPlan([FaultAction("crash", tag="X", host="b")]))
    crashed = []
    inj.register_crash_hook("b", lambda: crashed.append("b"))
    with pytest.raises(ConnectionReset):
        inj.on_transfer("a", "b", "X", 1)
    assert crashed == ["b"]
    with pytest.raises(ConnectionReset):  # everything touching b resets
        inj.on_transfer("b", "c", "Y", 1)
    assert inj.on_transfer("a", "c", "Y", 1) == 0.0  # other hosts unaffected
    inj.restart("b")
    assert inj.on_transfer("a", "b", "X", 1) == 0.0
    assert inj.crashes == 1


def test_watchdog_budget():
    inj = FaultInjector(FaultPlan([], max_transfers=3))
    for _ in range(3):
        inj.on_transfer("a", "b", "X", 1)
    with pytest.raises(WatchdogTimeout):
        inj.on_transfer("a", "b", "X", 1)


def test_install_on_network_object():
    class FakeNetwork:
        fault_injector = None

    net = FakeNetwork()
    inj = install_fault_injector(net, FaultPlan())
    assert net.fault_injector is inj


# ----------------------------------------------------------------------
# watchdog helpers
# ----------------------------------------------------------------------
def test_get_within_returns_delivered_item():
    env = Environment()
    ch = Channel(env, name="wd")
    ch.put("payload", delay=0.5)
    assert get_within(env, ch, deadline=2.0, label="test") == "payload"


def test_get_within_times_out_with_label():
    env = Environment()
    ch = Channel(env, name="starved")
    with pytest.raises(WatchdogTimeout, match="starved"):
        get_within(env, ch, deadline=1.0, label="never-delivered")


def test_drain_within_collects_and_reports_progress():
    env = Environment()
    ch = Channel(env, name="drain")
    for i in range(3):
        ch.put(i, delay=0.1 * (i + 1))
    assert drain_within(env, ch, 3, deadline=5.0) == [0, 1, 2]

    env2 = Environment()
    ch2 = Channel(env2, name="short")
    ch2.put("only", delay=0.1)
    with pytest.raises(WatchdogTimeout, match="1/3"):
        drain_within(env2, ch2, 3, deadline=1.0)


def test_guarded_wait_inside_process():
    env = Environment()
    results = []

    def waiter():
        value = yield from guarded(env, env.timeout(0.5, value="done"), 2.0, "ok-wait")
        results.append(value)

    env.process(waiter())
    env.run()
    assert results == ["done"]

    env2 = Environment()
    failures = []

    def starved():
        try:
            yield from guarded(env2, env2.event(), 1.0, "starved-wait")
        except WatchdogTimeout as exc:
            failures.append(str(exc))

    env2.process(starved())
    env2.run()
    assert failures and "starved-wait" in failures[0]
