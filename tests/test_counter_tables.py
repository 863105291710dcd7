"""A connection counter is declared once, as a ``ConnStats`` field.

``/metrics``, ``Monitor::ConnStatsRec`` and the ``repro-top`` tier mix
must all show every counter that declaration (and ``DEPOSIT_TIERS``
beside it) names: a field added there and nowhere else either shows up
everywhere or fails here.
"""

import dataclasses
import time
import urllib.request

import pytest

from repro.apps.top import Snapshot, render
from repro.obs.promexport import parse_exposition, samples_by_name
from repro.orb import ORB, ORBConfig
from repro.orb.connection import DEPOSIT_TIERS, ConnStats
from repro.services import CountingSubscriber, TopicHubImpl
from repro.services.monitor import monitor_api
from repro.transport.shm import shm_available


def _scrape(orb):
    url = orb.enable_telemetry().url + "/metrics"
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return parse_exposition(resp.read().decode("utf-8"))


def test_every_counter_is_a_gauge_after_one_sampler_pass():
    orb = ORB(ORBConfig(scheme="loop"))
    try:
        by_name = samples_by_name(_scrape(orb))  # a scrape samples first
    finally:
        orb.shutdown()
    assert ConnStats._COUNTER_FIELDS  # the declaration itself
    missing = [f for f in ConnStats._COUNTER_FIELDS if f not in by_name]
    assert missing == []


def test_monitor_record_has_the_same_counters_in_the_same_order():
    """MONITOR_IDL is a literal wire contract; this is its drift guard."""
    rec_fields = tuple(monitor_api().Monitor_ConnStatsRec._FIELDS)
    assert rec_fields == ("peer", "role") + ConnStats._COUNTER_FIELDS


def test_every_tier_counter_is_a_counter_and_a_dashboard_row():
    fields = {f.name for f in dataclasses.fields(ConnStats)}
    text = render(Snapshot([], 0.0))
    for tier in DEPOSIT_TIERS:
        assert tier.sent in fields
        assert tier.fallback is None or tier.fallback in fields
        assert tier.subset_of is None or tier.subset_of in fields
        assert tier.label in text
        if tier.fallback:
            assert f"{tier.label} fallback" in text


@pytest.mark.skipif(not shm_available(),
                    reason="no shared-memory directory")
def test_shared_fanout_refs_reach_the_scrape_and_the_dashboard():
    """The tier ``fanout_shm`` exists to exercise: one publish to two
    colocated subscribers is one arena post and two shared refs."""
    hub = TopicHubImpl(slot_size=64 * 1024, slot_count=8, slot_wait=0.5)
    orbs, impls = [], []
    try:
        hub.delivery_orb.enable_telemetry()
        for _ in range(2):
            orb = ORB(ORBConfig(scheme="shm"))
            orbs.append(orb)
            impls.append(CountingSubscriber())
            hub.subscribe("t", orb.activate(impls[-1]))
        assert hub.publish("t", b"\x5a" * 4096) == 2
        deadline = time.monotonic() + 5.0
        while sum(i.received for i in impls) < 2:
            assert time.monotonic() < deadline, "delivery stalled"
            time.sleep(0.01)
        samples = _scrape(hub.delivery_orb)
        by_name = samples_by_name(samples)
        assert sum(s.value for s in by_name["shm_shared_refs"]) >= 2
        row = next(line for line in
                   render(Snapshot(samples, 0.0)).splitlines()
                   if "shm shared refs" in line)
        assert int(row.split()[3]) >= 2
    finally:
        hub.destroy()
        for orb in orbs:
            orb.shutdown()
