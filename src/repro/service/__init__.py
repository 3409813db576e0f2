"""Persistent local simulation service (``repro serve``).

Turns the one-shot sweep CLI into a client/server split: a long-running
:class:`~repro.service.server.SimulationServer` owns a warm worker pool
and a sharded result cache, and every ``repro sweep``/``repro figure``
invocation (plus the verify/cost/chaos/replay gates) can become a thin
:class:`~repro.service.client.ServiceClient` that submits jobs over a
local TCP socket and streams records back as they complete. See
docs/performance.md ("Simulation service") for the architecture and
batching semantics.
"""

from .client import ServiceClient, connect_or_none, resolve_address
from .protocol import PROTOCOL_VERSION, DEFAULT_STATE_FILE
from .server import SimulationServer

__all__ = [
    "ServiceClient",
    "SimulationServer",
    "connect_or_none",
    "resolve_address",
    "PROTOCOL_VERSION",
    "DEFAULT_STATE_FILE",
]
