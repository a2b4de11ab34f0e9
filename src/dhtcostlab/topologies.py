"""Routing geometries and their canonical routes.

Five directed overlay graphs are supported:

* star:     node 0 links to everyone, everyone links back to node 0,
* debruijn: words of length d over delta symbols, edges shift left and
  append one symbol (self loops removed),
* torus:    d-dimensional grid of side n with wraparound links,
* plaxton:  words of length d over delta symbols, one link per position
  and per differing symbol (hypercube generalization),
* chord:    2**d nodes on a ring, node i links to i + 2**k mod N.

Every geometry defines one canonical route per ordered node pair.  The
canonical route is deterministic, follows out-edges only, and for each
geometry realizes the graph distance; the exact tie-breaking rules are
documented on the concrete classes.  All cost accounting upstream is
defined over these canonical routes.

Each geometry is declared once, by two classes: a frozen spec dataclass
whose ``name`` is its CLI name and whose fields are its parameters, and
a ``Topology`` subclass holding the scalar ``route`` next to ``pairs``,
the vectorized kernel that exact enumeration and simulation run on,
and ``degrees``, the out-degree of every node as one array.  The scalar
``route`` and ``out_neighbors`` are the readable reference; the test
suite pins every kernel and every degree array to them.  ``GEOMETRIES``
maps each name to its spec class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

from .costmodel import InvalidParameterError, ResourceLimitError

#: Refuse to materialize topologies above this many nodes unless the
#: caller raises the limit explicitly.
DEFAULT_BUILD_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# geometry descriptions


@dataclass(frozen=True)
class Star:
    """Hub and spokes on ``n`` nodes, node 0 being the hub."""

    name: ClassVar[str] = "star"
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"star needs n >= 1, got {self.n}")

    @property
    def node_count(self) -> int:
        return self.n


@dataclass(frozen=True)
class DeBruijn:
    """De Bruijn digraph on words of length ``d`` over ``delta`` symbols."""

    name: ClassVar[str] = "debruijn"
    delta: int
    d: int

    def __post_init__(self):
        if self.delta < 2:
            raise InvalidParameterError(f"debruijn needs delta >= 2, got {self.delta}")
        if self.d < 1:
            raise InvalidParameterError(f"debruijn needs d >= 1, got {self.d}")

    @property
    def node_count(self) -> int:
        return self.delta**self.d


@dataclass(frozen=True)
class Torus:
    """``d``-dimensional torus with ``n_side`` nodes per dimension."""

    name: ClassVar[str] = "torus"
    d: int
    n_side: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidParameterError(f"torus needs d >= 1, got {self.d}")
        if self.n_side < 2:
            raise InvalidParameterError(f"torus needs n_side >= 2, got {self.n_side}")

    @property
    def node_count(self) -> int:
        return self.n_side**self.d


@dataclass(frozen=True)
class PlaxtonTree:
    """Digit-correcting mesh on words of length ``d`` over ``delta`` symbols."""

    name: ClassVar[str] = "plaxton"
    delta: int
    d: int

    def __post_init__(self):
        if self.delta < 2:
            raise InvalidParameterError(f"plaxton needs delta >= 2, got {self.delta}")
        if self.d < 1:
            raise InvalidParameterError(f"plaxton needs d >= 1, got {self.d}")

    @property
    def node_count(self) -> int:
        return self.delta**self.d


@dataclass(frozen=True)
class ChordRing:
    """Ring of ``2**d`` nodes with power-of-two finger links."""

    name: ClassVar[str] = "chord"
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidParameterError(f"chord needs d >= 1, got {self.d}")

    @property
    def node_count(self) -> int:
        return 2**self.d


GeometrySpec = Union[Star, DeBruijn, Torus, PlaxtonTree, ChordRing]


@dataclass(frozen=True)
class Route:
    """Canonical route between two nodes, endpoints included."""

    source: int
    destination: int
    hops: tuple[int, ...]

    def __post_init__(self):
        if len(self.hops) < 1:
            raise InvalidParameterError("a route visits at least its source")
        if self.hops[0] != self.source or self.hops[-1] != self.destination:
            raise InvalidParameterError("route endpoints do not match hops")

    @property
    def hop_count(self) -> int:
        return len(self.hops) - 1

    @property
    def intermediates(self) -> tuple[int, ...]:
        return self.hops[1:-1]


# ---------------------------------------------------------------------------
# word codecs shared by debruijn and plaxton

def _digits(node: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(node % base)
        node //= base
    return tuple(reversed(out))


def _from_digits(digits, base: int) -> int:
    value = 0
    for dig in digits:
        value = value * base + dig
    return value


# ---------------------------------------------------------------------------
# topologies


class Topology:
    """A built geometry: node set plus out-neighbor structure.

    Nodes are the integers ``0 .. node_count - 1``.  Subclasses provide
    ``out_neighbors``, ``degrees``, ``route`` and ``pairs``, and
    ``degree`` or ``label`` where the defaults do not fit.
    """

    def __init__(self, spec: GeometrySpec):
        self.spec = spec
        self.node_count = spec.node_count

    def nodes(self) -> range:
        return range(self.node_count)

    def out_neighbors(self, node: int) -> tuple[int, ...]:
        raise NotImplementedError

    def degree(self, node: int) -> int:
        self._check_node(node)
        return len(self.out_neighbors(node))

    def degrees(self) -> np.ndarray:
        """Out-degree of every node as an int64 array; ``degree`` per node."""
        raise NotImplementedError

    def route(self, source: int, destination: int) -> list[int]:
        """Canonical route as a node list, ``[source, ..., destination]``."""
        raise NotImplementedError

    def pairs(self, src: np.ndarray, dst: np.ndarray, loading: np.ndarray) -> np.ndarray:
        """Vectorized ``route`` over equal-length int64 pair arrays.

        Returns the canonical hop count per pair and adds one to
        ``loading[v]`` for every pair whose route crosses v strictly
        between the endpoints.  Semantics match ``route`` exactly.
        """
        raise NotImplementedError

    def label(self, node: int) -> str:
        self._check_node(node)
        return str(node)

    def _check_node(self, node: int):
        if not 0 <= node < self.node_count:
            raise InvalidParameterError(
                f"node {node} outside 0..{self.node_count - 1}"
            )


class StarTopology(Topology):
    """Star routes go through the hub unless an endpoint is the hub."""

    def out_neighbors(self, node):
        self._check_node(node)
        if node == 0:
            return tuple(range(1, self.node_count))
        return (0,)

    def degree(self, node):
        self._check_node(node)
        return self.node_count - 1 if node == 0 else 1

    def degrees(self):
        out = np.ones(self.node_count, dtype=np.int64)
        out[0] = self.node_count - 1
        return out

    def route(self, source, destination):
        self._check_node(source)
        self._check_node(destination)
        if source == destination:
            return [source]
        if source == 0 or destination == 0:
            return [source, destination]
        return [source, 0, destination]

    def pairs(self, src, dst, loading):
        moving = src != dst
        direct = moving & ((src == 0) | (dst == 0))
        relayed = moving & ~direct
        loading[0] += int(np.count_nonzero(relayed))
        return moving.astype(np.int64) + relayed.astype(np.int64)


class _WordTopology(Topology):
    """Words of length ``d`` over ``delta`` symbols, most significant first."""

    def __init__(self, spec: Union[DeBruijn, PlaxtonTree]):
        super().__init__(spec)
        self.delta = spec.delta
        self.d = spec.d

    def label(self, node):
        self._check_node(node)
        digits = _digits(node, self.delta, self.d)
        sep = "" if self.delta <= 10 else "."
        return sep.join(str(dig) for dig in digits)


class DeBruijnTopology(_WordTopology):
    """Shift-and-append routing.

    The canonical route appends the destination word one symbol at a
    time, skipping the longest overlap between a suffix of the source
    and a prefix of the destination.  Shortest paths in a de Bruijn
    digraph are unique, so no tie-breaking is needed.
    """

    def out_neighbors(self, node):
        self._check_node(node)
        base = (node * self.delta) % self.node_count
        return tuple(base + sym for sym in range(self.delta) if base + sym != node)

    def degrees(self):
        out = np.full(self.node_count, self.delta, dtype=np.int64)
        # the repeated-symbol words sym * 11...1 lose their self loop
        repunit = (self.node_count - 1) // (self.delta - 1)
        out[np.arange(self.delta) * repunit] -= 1
        return out

    def route(self, source, destination):
        self._check_node(source)
        self._check_node(destination)
        if source == destination:
            return [source]
        overlap = self._overlap(source, destination)
        dst_digits = _digits(destination, self.delta, self.d)
        hops = [source]
        node = source
        for sym in dst_digits[overlap:]:
            node = (node * self.delta) % self.node_count + sym
            hops.append(node)
        return hops

    def _overlap(self, source, destination):
        # longest ell < d with suffix_ell(source) == prefix_ell(destination)
        for ell in range(self.d - 1, 0, -1):
            if source % self.delta**ell == destination // self.delta ** (self.d - ell):
                return ell
        return 0

    def pairs(self, src, dst, loading):
        delta, d, n = self.delta, self.d, self.node_count
        pw = delta ** np.arange(d + 1, dtype=np.int64)
        overlap = np.zeros(src.shape, dtype=np.int64)
        undecided = src != dst
        # longest suffix-of-source == prefix-of-destination match wins
        for ell in range(d - 1, 0, -1):
            hit = undecided & (src % pw[ell] == dst // pw[d - ell])
            overlap[hit] = ell
            undecided &= ~hit
        hops = np.where(src == dst, 0, d - overlap)
        for step in range(1, d):
            live = hops > step
            if not live.any():
                break
            # word after `step` appends: tail of src, then the symbols of
            # dst consumed so far (skipping the overlapped prefix)
            pending = hops[live] - step
            word = (src[live] % pw[d - step]) * pw[step]
            word += (dst[live] // pw[pending]) % pw[step]
            loading += np.bincount(word, minlength=n)
        return hops


class TorusTopology(Topology):
    """Dimension-ordered greedy routing on the wraparound grid.

    Coordinates are corrected from the most significant dimension down,
    always along the shorter arc of the ring; when both arcs have equal
    length the positive direction is taken.
    """

    def __init__(self, spec: Torus):
        super().__init__(spec)
        self.d = spec.d
        self.n_side = spec.n_side

    def coords(self, node: int) -> tuple[int, ...]:
        self._check_node(node)
        return _digits(node, self.n_side, self.d)

    def node_at(self, coords) -> int:
        if len(coords) != self.d:
            raise InvalidParameterError(f"expected {self.d} coordinates")
        for c in coords:
            if not 0 <= c < self.n_side:
                raise InvalidParameterError(f"coordinate {c} outside the torus")
        return _from_digits(coords, self.n_side)

    def out_neighbors(self, node):
        coords = self.coords(node)
        seen = []
        for axis in range(self.d):
            for step in (1, -1):
                moved = list(coords)
                moved[axis] = (moved[axis] + step) % self.n_side
                other = _from_digits(moved, self.n_side)
                if other != node and other not in seen:
                    seen.append(other)
        return tuple(seen)

    def degrees(self):
        # on a side-2 ring both steps of an axis reach the same node
        per_axis = 1 if self.n_side == 2 else 2
        return np.full(self.node_count, per_axis * self.d, dtype=np.int64)

    def route(self, source, destination):
        src = list(self.coords(source))
        dst = self.coords(destination)
        n = self.n_side
        hops = [source]
        for axis in range(self.d):
            forward = (dst[axis] - src[axis]) % n
            if forward == 0:
                continue
            # shorter arc; ties (two equal arcs) go in the positive direction
            if 2 * forward <= n:
                step, count = 1, forward
            else:
                step, count = -1, n - forward
            for _ in range(count):
                src[axis] = (src[axis] + step) % n
                hops.append(_from_digits(src, n))
        return hops

    def pairs(self, src, dst, loading):
        d, n, total = self.d, self.n_side, self.node_count
        weights = n ** np.arange(d - 1, -1, -1, dtype=np.int64)
        steps = np.empty((d, src.size), dtype=np.int64)
        sign = np.empty((d, src.size), dtype=np.int64)
        for axis in range(d):
            forward = (dst // weights[axis] - src // weights[axis]) % n
            positive = 2 * forward <= n  # shorter arc, ties positive
            steps[axis] = np.where(positive, forward, n - forward)
            sign[axis] = np.where(positive, 1, -1)
        hops = steps.sum(axis=0)
        cur = src.copy()
        walked = np.zeros(src.size, dtype=np.int64)
        for axis in range(d):
            remaining = steps[axis].copy()
            while True:
                active = remaining > 0
                if not active.any():
                    break
                digit = (cur[active] // weights[axis]) % n
                moved = (digit + sign[axis][active]) % n
                cur[active] += (moved - digit) * weights[axis]
                remaining[active] -= 1
                walked[active] += 1
                inter = active & (walked < hops)
                loading += np.bincount(cur[inter], minlength=total)
        return hops

    def label(self, node):
        return "(" + ",".join(str(c) for c in self.coords(node)) + ")"


class PlaxtonTopology(_WordTopology):
    """Digit-correcting routing, most significant digit first.

    Each hop rewrites exactly one digit of the current word to the
    matching digit of the destination, so the route length equals the
    Hamming distance between the words.
    """

    def out_neighbors(self, node):
        self._check_node(node)
        digits = _digits(node, self.delta, self.d)
        out = []
        for pos in range(self.d):
            weight = self.delta ** (self.d - 1 - pos)
            for sym in range(self.delta):
                if sym != digits[pos]:
                    out.append(node + (sym - digits[pos]) * weight)
        return tuple(out)

    def degrees(self):
        return np.full(self.node_count, self.d * (self.delta - 1), dtype=np.int64)

    def route(self, source, destination):
        self._check_node(source)
        self._check_node(destination)
        src = list(_digits(source, self.delta, self.d))
        dst = _digits(destination, self.delta, self.d)
        hops = [source]
        for pos in range(self.d):
            if src[pos] != dst[pos]:
                src[pos] = dst[pos]
                hops.append(_from_digits(src, self.delta))
        return hops

    def pairs(self, src, dst, loading):
        delta, d, total = self.delta, self.d, self.node_count
        weights = delta ** np.arange(d - 1, -1, -1, dtype=np.int64)
        hops = np.zeros(src.size, dtype=np.int64)
        for axis in range(d):
            hops += (src // weights[axis] - dst // weights[axis]) % delta != 0
        cur = src.copy()
        fixed = np.zeros(src.size, dtype=np.int64)
        for axis in range(d):
            have = (cur // weights[axis]) % delta
            want = (dst // weights[axis]) % delta
            mismatch = have != want
            cur += np.where(mismatch, (want - have) * weights[axis], 0)
            fixed += mismatch
            inter = mismatch & (fixed < hops)
            loading += np.bincount(cur[inter], minlength=total)
        return hops


class ChordTopology(Topology):
    """Greedy finger routing, largest useful power of two first.

    The route repeatedly takes the finger covering the highest set bit
    of the remaining clockwise gap, so the hop count is the popcount of
    ``(destination - source) mod N``.
    """

    def __init__(self, spec: ChordRing):
        super().__init__(spec)
        self.d = spec.d

    def out_neighbors(self, node):
        self._check_node(node)
        return tuple(
            (node + (1 << k)) % self.node_count
            for k in range(self.d)
            if (1 << k) % self.node_count != 0
        )

    def degrees(self):
        return np.full(self.node_count, self.d, dtype=np.int64)

    def route(self, source, destination):
        self._check_node(source)
        self._check_node(destination)
        gap = (destination - source) % self.node_count
        hops = [source]
        node = source
        for k in range(self.d - 1, -1, -1):
            if gap >> k & 1:
                node = (node + (1 << k)) % self.node_count
                hops.append(node)
        return hops

    def pairs(self, src, dst, loading):
        d, total = self.d, self.node_count
        gap = (dst - src) % total
        hops = np.zeros(src.size, dtype=np.int64)
        for bit in range(d):
            hops += (gap >> bit) & 1
        cur = src.copy()
        walked = np.zeros(src.size, dtype=np.int64)
        for bit in range(d - 1, -1, -1):
            take = ((gap >> bit) & 1).astype(bool)
            cur = np.where(take, (cur + (1 << bit)) % total, cur)
            walked += take
            inter = take & (walked < hops)
            loading += np.bincount(cur[inter], minlength=total)
        return hops

    def label(self, node):
        self._check_node(node)
        return format(node, f"0{self.d}b")


_TOPOLOGY_CLASSES = {
    Star: StarTopology,
    DeBruijn: DeBruijnTopology,
    Torus: TorusTopology,
    PlaxtonTree: PlaxtonTopology,
    ChordRing: ChordTopology,
}

#: Spec class by CLI name, in the CLI's listing order.
GEOMETRIES = {spec.name: spec for spec in _TOPOLOGY_CLASSES}


# ---------------------------------------------------------------------------
# module operations


def build(spec: GeometrySpec, max_nodes: int = DEFAULT_BUILD_LIMIT) -> Topology:
    """Materialize a geometry, refusing sizes above ``max_nodes``."""
    cls = _TOPOLOGY_CLASSES.get(type(spec))
    if cls is None:
        raise InvalidParameterError(f"unknown geometry {spec!r}")
    if spec.node_count > max_nodes:
        raise ResourceLimitError(
            f"{spec.node_count} nodes exceeds the build limit of {max_nodes}"
        )
    return cls(spec)


def canonical_route(topology: Topology, source: int, destination: int) -> Route:
    """The unique canonical route from ``source`` to ``destination``."""
    hops = topology.route(source, destination)
    return Route(source=source, destination=destination, hops=tuple(hops))


def bfs_distance(topology: Topology, source: int, destination: int) -> Optional[int]:
    """Graph distance along out-edges, or ``None`` when unreachable."""
    topology._check_node(source)
    topology._check_node(destination)
    if source == destination:
        return 0
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in topology.out_neighbors(node):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                if nxt == destination:
                    return dist[nxt]
                queue.append(nxt)
    return None


def degree(topology: Topology, node: int) -> int:
    """Out-degree of ``node``; equals in-degree in all five geometries."""
    return topology.degree(node)


def node_label(spec: GeometrySpec, node: int) -> str:
    """Human-readable label of ``node`` without building the topology."""
    return build(spec, max_nodes=spec.node_count).label(node)


def is_repeated_symbol_node(spec: DeBruijn, node: int) -> bool:
    """Whether a de Bruijn node spells one repeated symbol.

    Those delta nodes would carry a self loop, which the edge set drops,
    so they have out-degree delta - 1.  They never appear as an
    intermediate on any canonical route and their access cost attains
    the network maximum.
    """
    if not isinstance(spec, DeBruijn):
        raise InvalidParameterError("repeated-symbol nodes exist only for debruijn")
    if not 0 <= node < spec.node_count:
        raise InvalidParameterError(f"node {node} outside 0..{spec.node_count - 1}")
    digits = _digits(node, spec.delta, spec.d)
    return all(dig == digits[0] for dig in digits)
