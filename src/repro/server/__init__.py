"""repro.server — a concurrent, self-healing service over the catalog.

The serving layer for the paper's database model: many clients, one
shared catalog, with optimistic concurrency control, retry/backoff,
admission control (load shedding + a persistence circuit breaker) and
crash recovery on startup (:func:`repro.db.persist.recover`, re-exported
here as :func:`recover`).  ``repro.server.protocol`` puts an asyncio
socket front end over it (``repro-server`` on the command line), spoken
by the blocking client in ``repro.client``.  See ``docs/ROBUSTNESS.md``
§"Concurrency & serving" and §"Wire protocol" for the protocols.
"""

from ..db.persist import RecoveryReport, recover
from .admission import AdmissionQueue, CircuitBreaker
from .occ import OCCTransaction
from .protocol import ProtocolConfig, ProtocolServer, ProtocolStats
from .retry import RetryPolicy
from .service import (ClientSession, ClientTransaction, Server, ServerConfig,
                      ServerStats)

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "ClientSession",
    "ClientTransaction",
    "OCCTransaction",
    "ProtocolConfig",
    "ProtocolServer",
    "ProtocolStats",
    "RecoveryReport",
    "RetryPolicy",
    "Server",
    "ServerConfig",
    "ServerStats",
    "recover",
]
