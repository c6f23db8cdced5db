"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's figures or headline
results; its module docstring quotes the claim and names the section.
These are scientific reproductions, not micro-benchmarks: one
deterministic run is the measurement, so the :func:`once` fixture is a
plain call and the suite needs nothing beyond pytest.

Each benchmark prints a paper-vs-measured table via :func:`report`.
"""

from __future__ import annotations

import pytest

from repro.simgrid import GridWorld


def report(exp_id: str, title: str, rows: list) -> None:
    """Print one experiment's paper-vs-measured table."""
    width = max(len(title), 64)
    print()
    print("=" * width)
    print(f"[{exp_id}] {title}")
    print("-" * width)
    for label, paper, measured in rows:
        print(f"  {label:<38} paper: {paper:<16} measured: {measured}")
    print("=" * width)


def matisse_topology(seed: int = 1, *, wan_segment_latency: float = 10e-3):
    """The paper's Fig. 5 testbed (same builder as tests/conftest.py)."""
    world = GridWorld(seed=seed)
    servers = [world.add_host(f"dpss{i}.lbl.gov") for i in range(1, 5)]
    gw_host = world.add_host("gw.lbl.gov")
    client = world.add_host("mems.cairn.net")
    viz = world.add_host("viz.cairn.net")
    world.lan(servers + [gw_host], switch="lbl-sw")
    world.lan([client, viz], switch="isi-sw")
    world.wan_path("lbl-sw", "isi-sw", routers=["ntn1", "supernet1"],
                   latency_s=wan_segment_latency)
    return world, {"servers": servers, "gateway_host": gw_host,
                   "client": client, "viz": viz}


def lan_topology(seed: int = 1):
    """Both endpoints on one 1000BT LAN (the paper's LAN control runs)."""
    world = GridWorld(seed=seed)
    servers = [world.add_host(f"dpss{i}.lbl.gov") for i in range(1, 5)]
    client = world.add_host("client.lbl.gov")
    world.lan(servers + [client], switch="lbl-sw")
    return world, {"servers": servers, "client": client}


@pytest.fixture
def once():
    """Run a scenario exactly once."""
    def run(fn, *args, **kwargs):
        return fn(*args, **kwargs)
    return run
