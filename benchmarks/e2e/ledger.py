"""The per-layer ledger: one traced run's spans and public counters
turned into the ``per_layer`` metrics of ``BENCHMARK.json``.

Conventions: ``<layer>.share`` is the layer's *self* time over the run
wall (all shares plus ``trace.unattributed_share`` sum to 1);
``<layer>.<op>_us`` is the mean *inclusive* time of one call (what its
caller waited); counts and ratios come from span counts and each
component's public counters and repeat exactly for a fixed seed.  All
of it covers the run phase only, except the directory's search figures,
which include set-up: that is where consumers discover sensors.  A layer
a workload bypasses reports 0.
"""

from __future__ import annotations

from .tracer import ROOT, Tracer, percentile
from .workloads import Outcome

__all__ = ["per_layer"]

LAYERS = ("kernel", "transport", "network", "ulm", "gateway", "filters",
          "archive", "directory", "client", "sensors", "resilience", "faults")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, outcome: Outcome, untraced_wall_s: float,
              setup_by_name: dict) -> dict:
    """``setup_by_name`` is the ledger of the same pass's traced set-up;
    only the directory's search figures use it."""
    book = tracer.ledger()
    by_name = book["by_name"]
    wall_ns = book["wall_ns"]
    facts = outcome.facts
    idle = {"calls": 0, "total_ns": 0}   # a boundary never crossed
    searches = [phase.get("directory.backend_search", idle)
                for phase in (setup_by_name, by_name)]
    n_searches = sum(row["calls"] for row in searches)

    def calls(name: str) -> int:
        return by_name.get(name, idle)["calls"]

    def mean_us(name: str) -> float:
        row = by_name.get(name, idle)
        return _ratio(row["total_ns"], row["calls"]) / 1e3

    query_ns = tracer.durations_ns("archive.query")
    summary_ns = tracer.durations_ns("archive.summary")

    share = dict.fromkeys(LAYERS, 0.0)
    for name, row in by_name.items():
        layer = name.split(".")[0]
        if layer in share:
            share[layer] += row["self_ns"] / wall_ns

    archive = facts.get("archive", {})
    resilience = facts.get("resilience", {})
    ingests = facts.get("events_in", 0)   # sensor events at the gateway
    sends = calls("transport.send")
    filter_evals = calls("filters.accept")
    deliveries = facts.get("events_delivered", 0)
    appends = calls("archive.append")
    latencies = facts.get("latencies_sim_s", [])
    received = facts.get("received", 0)

    return {
        "kernel.events_dispatched": facts.get("kernel_events", 0),
        "kernel.events_per_sensor_event":
            _ratio(facts.get("kernel_events", 0), ingests),
        "kernel.dispatch_share": share["kernel"],

        "transport.sends_per_sensor_event": _ratio(sends, ingests),
        "transport.send_us": mean_us("transport.send"),
        "transport.share": share["transport"],
        "transport.wakeups_per_send":
            _ratio(facts.get("wakeups", 0), facts.get("sends", 0)),
        "transport.lost_ratio":
            _ratio(facts.get("lost", 0), facts.get("sends", 0)),
        "transport.queue_delay_sim_s": facts.get("queue_delay_sim_s", 0.0),

        "network.route_calls_per_send": _ratio(calls("network.route"), sends),
        "network.route_us": mean_us("network.route"),
        "network.share": share["network"],
        "network.queue_drops": facts.get("queue_drops", 0),
        "network.peak_backlog_sim_s": facts.get("peak_backlog_sim_s", 0.0),

        "ulm.serializes_per_sensor_event":
            _ratio(calls("ulm.serialize"), ingests),
        "ulm.parses_per_sensor_event": _ratio(calls("ulm.parse"), ingests),
        "ulm.binary_encodes_per_sensor_event":
            _ratio(calls("ulm.encode"), ingests),
        "ulm.xml_renders_per_sensor_event":
            _ratio(calls("ulm.to_xml"), ingests),
        "ulm.serialize_us": mean_us("ulm.serialize"),
        "ulm.parse_us": mean_us("ulm.parse"),
        "ulm.share": share["ulm"],

        "gateway.ingest_us": mean_us("gateway.ingest"),
        "gateway.share": share["gateway"],
        "gateway.deliveries_per_ingest": _ratio(deliveries, ingests),
        "gateway.sends_per_ingest":
            _ratio(tracer.calls_under("gateway.ingest", "transport.send"),
                   calls("gateway.ingest")),
        "gateway.filtered_ratio":
            _ratio(facts.get("events_filtered", 0),
                   facts.get("events_filtered", 0) + deliveries
                   + facts.get("events_shed", 0)),
        "gateway.shed_ratio":
            _ratio(facts.get("events_shed", 0),
                   deliveries + facts.get("events_shed", 0)),
        "gateway.outbox_peak": facts.get("outbox_peak", 0),

        "filters.evals_per_ingest": _ratio(filter_evals, ingests),
        "filters.pass_ratio":
            _ratio(filter_evals - tracer.rejections, filter_evals),

        "archive.append_us": mean_us("archive.append"),
        "archive.query_us": mean_us("archive.query"),
        "archive.query_us_p50": (percentile(query_ns, 0.50) or 0) / 1e3,
        "archive.query_us_p99": (percentile(query_ns, 0.99) or 0) / 1e3,
        "archive.summary_us": mean_us("archive.summary"),
        "archive.summary_us_p50": (percentile(summary_ns, 0.50) or 0) / 1e3,
        "archive.ingest_events_per_s":
            _ratio(appends,
                   by_name.get("archive.append", idle)["total_ns"] / 1e9),
        "archive.share": share["archive"],
        "archive.rows_per_query":
            _ratio(facts.get("rows_returned", 0), calls("archive.query")),
        "archive.raw_scanned_per_summary":
            _ratio(archive.get("raw_scanned", 0), calls("archive.summary")),
        "archive.reordered_ratio":
            _ratio(archive.get("reordered", 0), archive.get("ingested", 0)),
        "archive.segments": archive.get("segments", 0),
        "archive.compact_pass_ms": mean_us("archive.compact") / 1e3,
        "archive.events_aged_out": archive.get("events_retired", 0)
            + archive.get("events_downsampled", 0),

        "directory.searches": n_searches,
        "directory.search_us":
            _ratio(sum(row["total_ns"] for row in searches), n_searches) / 1e3,
        "directory.index_hit_ratio":
            _ratio(facts.get("dir_index_hits", 0),
                   facts.get("dir_index_hits", 0)
                   + facts.get("dir_full_scans", 0)),
        "directory.replication_deltas": facts.get("dir_deltas", 0),
        "directory.share": share["directory"],

        "client.on_event_us": mean_us("client.on_event"),
        "client.share": share["client"],
        "client.duplicates_suppressed_ratio":
            _ratio(facts.get("duplicates_suppressed", 0),
                   facts.get("duplicates_suppressed", 0) + received),
        "client.replayed": facts.get("replayed", 0),
        "client.resubscribes": facts.get("resubscribes", 0),

        "sensors.samples": calls("sensors.sample"),
        "sensors.sample_us": mean_us("sensors.sample"),
        "sensors.share": share["sensors"],
        "sensors.restarts": facts.get("sensor_restarts", 0),

        "resilience.retries_per_first_try":
            _ratio(resilience.get("retries", 0),
                   resilience.get("attempts", 0) - resilience.get("retries", 0)),
        "resilience.breaker_opens": facts.get("breaker_opens", 0),
        "resilience.deadline_expired": resilience.get("deadline_expired", 0),
        "resilience.share": share["resilience"],

        "faults.applied": facts.get("faults_applied", 0),
        "faults.kinds_applied": facts.get("fault_kinds", 0),
        "faults.share": share["faults"],

        "sim.delivery_ms_p50": (percentile(latencies, 0.50) or 0.0) * 1e3,
        "sim.delivery_ms_p99": (percentile(latencies, 0.99) or 0.0) * 1e3,
        "sim.replay_gap_s_p90":
            percentile(facts.get("replay_gaps_sim_s", []), 0.90) or 0.0,
        "sim.s_per_host_s": _ratio(facts.get("sim_s", 0.0), untraced_wall_s),

        "trace.overhead_ratio": _ratio(outcome.run_wall_s, untraced_wall_s),
        "trace.spans": book["spans"],
        "trace.unattributed_share": by_name[ROOT]["self_ns"] / wall_ns,
    }

