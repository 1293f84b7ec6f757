"""Transport substrates: IP (fragmentation), UDP, TCP, SCTP, reliable-UDP,
and the one listener the connection stacks share."""

from .ip import IpStack, IpPacket, IP_HEADER
from .listener import Listener
from .udp import (
    AddressInUseError, MessageTooLongError, UDP_HEADER, UDP_MAX_PAYLOAD,
    UdpDatagram, UdpError, UdpSocket, UdpStack,
)

__all__ = [
    "AddressInUseError", "IP_HEADER", "IpPacket", "IpStack", "Listener",
    "MessageTooLongError", "UDP_HEADER", "UDP_MAX_PAYLOAD", "UdpDatagram",
    "UdpError", "UdpSocket", "UdpStack",
]
