"""Testbed construction helpers.

Every experiment in the paper runs on two nodes joined by a 10-GigE
switch; :func:`build_testbed` assembles exactly that (generalized to N
hosts for the scalability studies).  The returned :class:`Testbed`
exposes the simulator, hosts, switch, and convenience hooks for loss
injection at any NIC egress queue — the same injection point as the
paper's ``tc`` configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..models.costs import CostModel, default_cost_model
from ..models.platform import Platform
from ..obs import Registry, sim_registry
from .engine import Simulator
from .faults import FaultModel
from .host import Host
from .link import Link
from .loss import LossModel
from .nic import cable
from .switch import Switch


@dataclass
class Testbed:
    """A constructed topology, ready for protocol stacks to bind to."""

    sim: Simulator
    platform: Platform
    costs: CostModel
    hosts: List[Host]
    switch: Optional[Switch]

    @property
    def registry(self) -> Registry:
        """The simulator's metrics registry (see :mod:`repro.obs`)."""
        return sim_registry(self.sim)

    def set_egress_loss(self, host_index: int, model: Optional[LossModel]) -> None:
        """Drop frames leaving ``hosts[host_index]`` per ``model`` —
        equivalent to the paper's ``tc`` FIFO-with-drop on that node.
        ``None`` detaches (see :meth:`NicPort.set_loss_model`)."""
        self.hosts[host_index].port.set_loss_model(model)

    def set_egress_faults(self, host_index: int, model: Optional[FaultModel]) -> None:
        """Attach a fault model or pipeline (see :mod:`repro.simnet.faults`)
        at ``hosts[host_index]``'s NIC egress, the one injection slot
        :meth:`set_egress_loss` also fills.  ``None`` detaches."""
        self.hosts[host_index].port.set_fault_model(model)


def build_testbed(
    n_hosts: int = 2,
    platform: Optional[Platform] = None,
    costs: Optional[CostModel] = None,
    use_switch: bool = True,
    sim: Optional[Simulator] = None,
    metrics: Optional[bool] = None,
) -> Testbed:
    """Build N hosts star-wired through one switch (or, with
    ``use_switch=False`` and exactly two hosts, a direct cable).

    ``metrics`` pins the simulator's :mod:`repro.obs` registry state
    (``None`` defers to the ``IWARP_OBS`` environment switch).  The
    registry is resolved *before* any host or port exists so every
    component collector sees the final enabled state."""
    if n_hosts < 2:
        raise ValueError("a testbed needs at least two hosts")
    platform = platform or Platform.paper_testbed()
    costs = costs or default_cost_model()
    sim = sim or Simulator()
    sim_registry(sim, enable=metrics)

    hosts = [Host(sim, host_id=i, costs=costs) for i in range(n_hosts)]
    for h in hosts:
        h.add_port(queue_frames=platform.nic_queue_frames)

    def new_link(name: str) -> Link:
        return Link(
            bandwidth_bps=platform.link_bandwidth_bps,
            delay_ns=platform.link_delay_ns,
            mtu=platform.mtu,
            name=name,
        )

    if not use_switch:
        if n_hosts != 2:
            raise ValueError("direct cabling only supports exactly two hosts")
        cable(sim, hosts[0].port, hosts[1].port, new_link("h0-h1"))
        return Testbed(sim, platform, costs, hosts, switch=None)

    switch = Switch(sim, forward_delay_ns=platform.switch_delay_ns)
    for h in hosts:
        sw_port = switch.add_port(
            hosts_behind=[h.host_id], queue_frames=platform.nic_queue_frames
        )
        cable(sim, h.port, sw_port, new_link(f"h{h.host_id}-sw"))
    # Each switch port must also know how to reach every *other* host:
    # with a star topology the table built in add_port (one host per
    # port) is already complete.
    return Testbed(sim, platform, costs, hosts, switch=switch)
