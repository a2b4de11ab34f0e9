"""Cost model shared by every routing geometry.

A network of N nodes stores N documents, one per node, and every node
issues requests for documents drawn uniformly at random.  A request from
source X for the document held by J costs the network in four ways:

* service:      J answers the request,
* access:       X waits for the answer, one unit per hop on the route,
* routing:      every intermediate node on the route forwards traffic,
* maintenance:  each node pays for the neighbor links it keeps open.

``CostParams`` carries the four per-unit prices.  The per-node expected
costs under the uniform request model are

    service_i     = s / N
    access_i      = (a / N) * sum_j t(i, j)
    routing_i     = r * L_i / N**2
    maintenance_i = m * degree(i)

where t(i, j) is the hop count of the canonical route from i to j and
L_i counts ordered pairs (source, destination), both distinct from i,
whose canonical route passes through i as an intermediate.  A node's
request for its own document is allowed and costs nothing in hops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidParameterError(ValueError):
    """A parameter is outside its documented domain."""


class UnsupportedParameterError(ValueError):
    """The parameters are valid but this operation does not cover them."""


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds a configured size limit."""


@dataclass(frozen=True)
class CostParams:
    """Per-unit prices for the four cost components.

    ``s`` prices serving a document, ``a`` one hop of access latency,
    ``r`` one unit of forwarded traffic and ``m`` one open link.
    """

    s: float
    a: float
    r: float
    m: float

    def __post_init__(self):
        for name in ("s", "a", "r", "m"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class CostBreakdown:
    """Expected per-request cost of one node, split by component."""

    service: float
    access: float
    routing: float
    maintenance: float

    @property
    def total(self) -> float:
        return self.service + self.access + self.routing + self.maintenance


@dataclass(frozen=True)
class RequestModel:
    """Uniform request workload over ``node_count`` nodes.

    Sources and document holders are drawn independently and uniformly,
    holders over all nodes including the source itself.
    """

    node_count: int

    def __post_init__(self):
        if self.node_count < 1:
            raise InvalidParameterError(
                f"node_count must be >= 1, got {self.node_count}"
            )

    def sample_pairs(self, rng: np.random.Generator, count: int):
        """Draw ``count`` (source, holder) pairs as two int64 arrays."""
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        sources = rng.integers(0, self.node_count, size=count, dtype=np.int64)
        holders = rng.integers(0, self.node_count, size=count, dtype=np.int64)
        return sources, holders

