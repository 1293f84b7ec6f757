"""The passive-open endpoint (listen/accept) of a connection stack.

One class serves TCP, SCTP and the RC verbs listener above them: the
stack builds each connection (TCP on a SYN, SCTP on a valid COOKIE
ECHO, RC once the QP is ready) and hands it to :meth:`Listener._deliver`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..simnet.engine import Future, Mailbox


class Listener:
    """Hands each accepted connection to ``on_accept`` when one is set,
    else to the oldest waiting :meth:`accept_future`, else queues it.

    ``stack`` is the owner of the port table: anything with ``sim`` and
    a ``_listeners`` dict keyed by port."""

    def __init__(self, stack: Any, port: int):
        self.stack = stack
        self.port = port
        self.on_accept: Optional[Callable[[Any], None]] = None
        self._accepted = Mailbox(stack.sim)

    def _deliver(self, conn: Any) -> None:
        if self.on_accept is not None:
            self.on_accept(conn)
        else:
            self._accepted.put(conn)

    def accept_future(self) -> Future:
        return self._accepted.get()

    def close(self) -> None:
        """Free the port; a later ``listen`` on it succeeds."""
        self.stack._listeners.pop(self.port, None)
