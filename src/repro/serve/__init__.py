"""`repro.serve` — the sharded network serving tier.

The deployment ring above :mod:`repro.service`: an asyncio HTTP
front-end (:class:`PricingServer`) exposing the canonical
:class:`~repro.api.PricingRequest`/:class:`~repro.api.BatchResult` API
over localhost, backed by shared-nothing
:class:`~repro.service.PricingService` shards in worker processes,
routed on :attr:`~repro.api.PricingRequest.batch_key` by a consistent
:class:`~repro.serve.ring.HashRing` and answered over each shard's
response pipe.  See ``docs/wire_schema.md`` for the protocol and
``docs/service.md`` for the architecture and failure modes.
"""

from .client import ServeClient
from .ring import HashRing
from .server import PricingServer, ServeConfig
from .shard import ShardHandle, ShardTicket

__all__ = [
    "HashRing",
    "PricingServer",
    "ServeClient",
    "ServeConfig",
    "ShardHandle",
    "ShardTicket",
]
