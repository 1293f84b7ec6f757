"""Memory-footprint accounting for the scalability study (Fig. 11).

The paper measures "the sum of the SIPp application memory usage and the
allocated slab buffer space used to create the required sockets"
(§VI.B.2) for a server handling N concurrent calls, one UDP port per
client, and reports (claims 18 and 19 of :mod:`repro.bench.claims`):

* the whole-application memory improvement for UD at 10 000 calls;
* a larger improvement predicted from socket sizes alone;
* the difference attributed to extra application bookkeeping UD
  needs (tracking call state to know when to close ports).

This module reproduces that arithmetic from per-object footprints.  The
constants are CALIBRATED to Linux-2.6.31-era slab sizes plus the iWARP
context sizes of the software stack; the two headline percentages above
pin them down (see the field comments).  The same constants also feed
the live accounting hooks used by :mod:`repro.apps.sip`, so measured
curves and closed-form predictions come from one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class FootprintModel:
    """Per-object memory footprints in bytes."""

    #: Kernel slab for one TCP socket (struct tcp_sock + hash bucket,
    #: rounded to the 2 KB slab — Linux 2.6.31 era).
    tcp_socket_bytes: int = 2048
    #: Kernel slab for one UDP socket.  CALIBRATED together with the QP
    #: contexts so the socket-only prediction lands on claim 19.
    udp_socket_bytes: int = 1280
    #: iWARP RC QP context: QP state plus per-connection MPA/DDP stream
    #: state (marker position, FPDU reassembly, untagged MSN tracking).
    rc_qp_bytes: int = 1856
    #: iWARP UD QP context: no connection/stream state, just queues and
    #: per-QP bookkeeping ("it does not have to keep information
    #: regarding connections", §IV.A).
    ud_qp_bytes: int = 1536
    #: Application state per concurrent call (both modes).
    app_call_bytes: int = 352
    #: Extra per-call bookkeeping the *application* needs in UD mode to
    #: know when a UDP port's call has ended (§VI.B.2's explanation of
    #: the 4 % gap between predicted and measured).
    ud_app_bookkeeping_bytes: int = 64
    #: Mode-independent resident application base (binary, scenario,
    #: buffers) — what keeps small client counts from showing the full
    #: asymptotic improvement, giving Fig. 11 its rising shape.
    app_base_bytes: int = 1 * 1024 * 1024

    # -- per-client totals ------------------------------------------------

    def rc_per_client(self) -> int:
        return self.tcp_socket_bytes + self.rc_qp_bytes + self.app_call_bytes

    def ud_per_client(self) -> int:
        return (
            self.udp_socket_bytes
            + self.ud_qp_bytes
            + self.app_call_bytes
            + self.ud_app_bookkeeping_bytes
        )

    # -- whole-server totals ------------------------------------------------

    def rc_total(self, clients: int) -> int:
        self._check(clients)
        return self.app_base_bytes + clients * self.rc_per_client()

    def ud_total(self, clients: int) -> int:
        self._check(clients)
        return self.app_base_bytes + clients * self.ud_per_client()

    @staticmethod
    def _check(clients: int) -> None:
        if clients < 0:
            raise ValueError(f"negative client count: {clients}")

    # -- the paper's two headline numbers ------------------------------------

    def improvement_percent(self, clients: int) -> float:
        """Whole-application memory improvement of UD over RC (Fig. 11)."""
        rc = self.rc_total(clients)
        if rc == 0:
            return 0.0
        return 100.0 * (rc - self.ud_total(clients)) / rc

    def socket_only_improvement_percent(self) -> float:
        """The 'theoretical calculation based solely on the iWARP socket
        size' (§VI.B.2) — per-socket+QP footprints, no application."""
        rc = self.tcp_socket_bytes + self.rc_qp_bytes
        ud = self.udp_socket_bytes + self.ud_qp_bytes
        return 100.0 * (rc - ud) / rc

    def sweep(self, client_counts: List[int]) -> Dict[int, float]:
        return {n: self.improvement_percent(n) for n in client_counts}


class MemoryMeter:
    """Live accounting used by the SIP server: objects are charged as
    they are created and credited back as they are destroyed, so tests
    can assert the measured total equals the closed-form prediction."""

    def __init__(self, model: FootprintModel):
        self.model = model
        self.bytes_now = model.app_base_bytes
        self.high_water = self.bytes_now
        self._counts: Dict[str, int] = {}
        # Each accounted kind's size (the model is frozen, so read once).
        self._sizes = {
            "tcp_socket": model.tcp_socket_bytes,
            "udp_socket": model.udp_socket_bytes,
            "rc_qp": model.rc_qp_bytes,
            "ud_qp": model.ud_qp_bytes,
            "app_call": model.app_call_bytes,
            "ud_bookkeeping": model.ud_app_bookkeeping_bytes,
        }

    def _size(self, kind: str) -> int:
        try:
            return self._sizes[kind]
        except KeyError:
            raise ValueError(f"unknown accounted object kind {kind!r}") from None

    def alloc(self, kind: str, count: int = 1) -> None:
        self.bytes_now += self._size(kind) * count
        self._counts[kind] = self._counts.get(kind, 0) + count
        if self.bytes_now > self.high_water:
            self.high_water = self.bytes_now

    def free(self, kind: str, count: int = 1) -> None:
        have = self._counts.get(kind, 0)
        if count > have:
            raise ValueError(f"freeing {count} {kind!r} but only {have} allocated")
        self.bytes_now -= self._size(kind) * count
        self._counts[kind] = have - count

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)
