"""SIP (SIPp-like) workload: response time and memory scalability."""

from . import messages
from .client import SipClient
from .server import SipAppConfig, SipServer
from .workload import build_sip_testbed, measure_memory, measure_response_time

__all__ = [
    "SipAppConfig", "SipClient", "SipServer", "build_sip_testbed",
    "measure_memory", "measure_response_time", "messages",
]
