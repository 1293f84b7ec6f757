"""TCP over the simulated IP layer (the RC lower-layer protocol)."""

from .congestion import RenoCongestion
from .connection import CLOSED, ESTABLISHED, TcpConnection, TcpError
from .segment import ACK, FIN, PSH, RST, SYN, TcpSegment, flag_names
from .socket import TcpSocket, TcpStack

__all__ = [
    "ACK", "CLOSED", "ESTABLISHED", "FIN", "PSH", "RST", "RenoCongestion",
    "SYN", "TcpConnection", "TcpError",
    "TcpSegment", "TcpSocket", "TcpStack", "flag_names",
]
