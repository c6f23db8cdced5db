"""JAMMDeployment — wire a full JAMM system over a GridWorld.

The paper's Fig. 1 topology in a few lines::

    world = GridWorld(seed=7)
    ...hosts, LANs, WAN...
    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw-lbl", host=world.host("gw.lbl.gov"))
    config = jamm.standard_config(vmstat=True, netstat=True)
    jamm.add_manager(world.host("dpss1.lbl.gov"), config=config, gateway=gw)
    client = jamm.client(host=world.host("mems.cairn.net"))
    collector = jamm.collector(host=world.host("mems.cairn.net"))
    collector.subscribe_all(client.sensors(type="vmstat"))
    world.run(until=60)
"""

from __future__ import annotations

from typing import Any, Optional

from ..simgrid.world import GridWorld
from .config import JAMMConfig
from .consumers import (ArchiverAgent, AutoCollector, EventCollector,
                        OverviewMonitor, ProcessMonitorConsumer)
from .directory import (DirectoryClient, LDAPBackend,
                        deploy_replicated_directory)
from .gateway import EventGateway
from .manager import SensorManager
from .resilience import ResilienceConfig, ResiliencePolicy

__all__ = ["JAMMDeployment"]


class JAMMDeployment:
    """One JAMM instance: directory group + gateways + sensor managers.

    Consumers are built from a :class:`repro.client.MonitoringClient`:
    :meth:`client` returns one (its sessions are consumers), and each
    consumer-type factory (:meth:`collector`, :meth:`archiver`, ...)
    builds its consumer on a client of its own.
    """

    def __init__(self, world: GridWorld, *, suffix: str = "o=grid",
                 n_directory_replicas: int = 1,
                 directory_hosts: tuple = (),
                 backend_factory=LDAPBackend,
                 replication_delay: float = 0.05,
                 authz: Any = None,
                 resilience: Any = None):
        self.world = world
        self.sim = world.sim
        self.suffix = suffix
        self.authz = authz
        #: :class:`repro.core.resilience.ResilienceConfig` applied to
        #: every RPC edge, or ``None`` (components keep their built-in
        #: defaults and no deployment-wide policies are created).
        #: Accepts a config, a dict (JSON knob from the scenario
        #: runner), or ``True`` for the defaults.
        self.resilience_config = self._normalize_resilience(resilience)
        #: name -> policy, so runners can roll resilience stats up
        self.policies: dict[str, ResiliencePolicy] = {}
        self.directory = deploy_replicated_directory(
            world.sim, hosts=directory_hosts, transport=world.transport,
            n_replicas=n_directory_replicas, backend_factory=backend_factory,
            suffix=suffix, replication_delay=replication_delay, authz=authz,
            resilience=self.make_policy("directory.replicate"))
        self.gateways: dict[str, EventGateway] = {}
        self.managers: dict[str, SensorManager] = {}
        self.consumers: list = []

    # -- resilience -----------------------------------------------------------

    @staticmethod
    def _normalize_resilience(resilience: Any):
        if resilience is None or isinstance(resilience, ResilienceConfig):
            return resilience
        if resilience is True:
            return ResilienceConfig()
        if isinstance(resilience, dict):
            return ResilienceConfig.from_dict(resilience)
        raise TypeError("resilience must be None/True/dict/ResilienceConfig")

    def make_policy(self, name: str):
        """One :class:`ResiliencePolicy` per client-ish thing, sharing
        the deployment config but with independent budgets/breakers and
        a world-seeded jitter RNG stream (deterministic per name).
        Returns ``None`` when the deployment has no resilience config —
        components then fall back to their own defaults."""
        if self.resilience_config is None:
            return None
        policy = self.policies.get(name)
        if policy is None:
            policy = ResiliencePolicy(
                self.sim, self.resilience_config,
                rng=self.world.rng.stream(f"resilience:{name}"), name=name)
            self.policies[name] = policy
        return policy

    def resilience_stats(self) -> dict:
        return {name: policy.stats()
                for name, policy in sorted(self.policies.items())}

    # -- directory ------------------------------------------------------------

    def enable_self_healing(self, *, check_interval: float = 5.0,
                            master_grace: int = 2) -> None:
        """Turn on the directory group's self-healing monitor
        (auto-failover + anti-entropy resync).  Sensor supervision is
        already on by default in every :class:`SensorManager`; gateway
        dead-consumer reaping is always on."""
        self.directory.start_self_healing(check_interval=check_interval,
                                          master_grace=master_grace)

    def directory_client(self, *, host: Any = None, principal: Any = None,
                         prefer_replica: bool = False,
                         resilience: Any = "inherit") -> DirectoryClient:
        if resilience == "inherit":
            hostname = host.name if host is not None else "local"
            resilience = self.make_policy(f"directory[{hostname}]")
        return self.directory.client(host=host, transport=self.world.transport,
                                     principal=principal,
                                     prefer_replica=prefer_replica,
                                     resilience=resilience)

    # -- consumer-facing client facade ------------------------------------------

    def client(self, *, host: Any = None, principal: Any = None,
               prefer_replica: bool = False):
        """A :class:`repro.client.MonitoringClient` over this
        deployment: fluent sensor discovery, subscription sessions,
        and query/summary point reads.

        Reads go master-first by default so a write through the same
        facade is immediately visible; pass ``prefer_replica=True`` for
        read-mostly consumers that can tolerate the replication delay.
        """
        from ..client import MonitoringClient  # lazy: avoids import cycle
        hostname = host.name if host is not None else "local"
        policy = self.make_policy(f"client[{hostname}]")
        return MonitoringClient(
            self.sim,
            directory=self.directory_client(host=host, principal=principal,
                                            prefer_replica=prefer_replica,
                                            resilience=policy),
            resolve_gateway=self.resolve_gateway,
            host=host, principal=principal, suffix=self.suffix,
            resilience=policy)

    # -- gateways ---------------------------------------------------------------

    def add_gateway(self, name: str, *, host: Any = None,
                    authz: Any = "inherit") -> EventGateway:
        if name in self.gateways:
            raise ValueError(f"duplicate gateway {name!r}")
        gateway = EventGateway(
            self.sim, name=name, host=host,
            transport=self.world.transport if host is not None else None,
            directory=self.directory_client(host=host),
            authz=self.authz if authz == "inherit" else authz)
        self.gateways[name] = gateway
        return gateway

    def resolve_gateway(self, name: Optional[str],
                        hostname: Optional[str] = None) -> Optional[EventGateway]:
        if name and name in self.gateways:
            return self.gateways[name]
        if hostname:
            host = self.world.hosts.get(hostname)
            if host is not None:
                service = host.service("gateway")
                if service is not None:
                    return service
        return None

    # -- sensor managers ------------------------------------------------------------

    def default_sensor_context(self) -> dict:
        """Extra constructor kwargs per sensor type (e.g. the SNMP
        manager network sensors poll through)."""
        return {"snmp": {"snmp": self.world.snmp},
                "router-errors": {"snmp": self.world.snmp},
                "remote-host": {"snmp": self.world.snmp}}

    def add_manager(self, host: Any, *, config: Optional[JAMMConfig] = None,
                    gateway: Any = None, config_http: Optional[tuple] = None,
                    refresh_interval: float = 120.0,
                    principal: Any = None,
                    start: bool = True) -> SensorManager:
        if isinstance(gateway, str):
            gateway = self.gateways[gateway]
        if gateway is None:
            if not self.gateways:
                gateway = self.add_gateway(f"gw-{host.name}")
            else:
                gateway = next(iter(self.gateways.values()))
        manager = SensorManager(
            self.sim, host, gateway=gateway,
            directory=self.directory_client(host=host, principal=principal),
            transport=self.world.transport,
            config=config, config_http=config_http,
            refresh_interval=refresh_interval,
            sensor_context=self.default_sensor_context(),
            suffix=self.suffix,
            resilience=self.make_policy(f"manager[{host.name}]"))
        self.managers[host.name] = manager
        if start:
            manager.start()
        return manager

    @staticmethod
    def standard_config(*, cpu: bool = False, memory: bool = False,
                        vmstat: bool = True, netstat: bool = True,
                        tcpdump: bool = True,
                        process_pattern: Optional[str] = None,
                        period: float = 1.0) -> JAMMConfig:
        """The paper's §6 host-sensor set: CPU and memory sensors on
        every host, process monitors, TCP monitors."""
        config = JAMMConfig()
        if cpu:
            config.add_sensor("cpu", "cpu", period=period)
        if memory:
            config.add_sensor("memory", "memory", period=5 * period)
        if vmstat:
            config.add_sensor("vmstat", "vmstat", period=period)
        if netstat:
            config.add_sensor("netstat", "netstat", period=period)
        if tcpdump:
            config.add_sensor("tcpdump", "tcpdump")
        if process_pattern is not None:
            config.add_sensor("procs", "process", pattern=process_pattern)
        return config

    # -- consumers ---------------------------------------------------------------------

    def _consumer(self, cls: type, host: Any, principal: Any,
                  kwargs: dict) -> Any:
        """A ``cls`` consumer built from a client over a replica-first
        directory client on ``host``, kept in ``self.consumers``."""
        from ..client import MonitoringClient  # lazy: avoids import cycle
        client = MonitoringClient(
            self.sim,
            directory=self.directory_client(host=host, prefer_replica=True),
            resolve_gateway=self.resolve_gateway, host=host,
            principal=principal, suffix=self.suffix)
        consumer = cls(client, **kwargs)
        self.consumers.append(consumer)
        return consumer

    def collector(self, *, host: Any = None, principal: Any = None,
                  **kwargs) -> EventCollector:
        return self._consumer(EventCollector, host, principal, kwargs)

    def auto_collector(self, *, host: Any = None, principal: Any = None,
                       **kwargs) -> AutoCollector:
        return self._consumer(AutoCollector, host, principal, kwargs)

    def archiver(self, *, host: Any = None, principal: Any = None,
                 **kwargs) -> ArchiverAgent:
        hostname = host.name if host is not None else "local"
        kwargs.setdefault("resilience",
                          self.make_policy(f"archiver[{hostname}]"))
        return self._consumer(ArchiverAgent, host, principal, kwargs)

    def process_monitor(self, *, host: Any = None, principal: Any = None,
                        **kwargs) -> ProcessMonitorConsumer:
        return self._consumer(ProcessMonitorConsumer, host, principal, kwargs)

    def overview_monitor(self, *, host: Any = None, principal: Any = None,
                         **kwargs) -> OverviewMonitor:
        return self._consumer(OverviewMonitor, host, principal, kwargs)

    # -- introspection ----------------------------------------------------------------------

    def sensor_entries(self, filter_text: str = "(objectclass=sensor)") -> list:
        client = self.directory_client()
        return client.search(f"ou=sensors,{self.suffix}", filter_text).entries

