"""Contact-and-connection graph construction and chromosome initializers.

Four initializers are provided: graph-guided (ccgi), uniform random (ri),
and two rearrangement repairs (fr fixes interference violations, sfr fixes
interference and stability).  The repairs scan bit masks packed from
``constraints``' own strict order rows and stability rows, once per
``make_initializer`` call.  Strict, because the literal per-pair term is
sequence-independent and would make the repair a no-op.
The initializers take a ``Generator`` or a ``draws.Draws`` reader over
one, and draw the same sequences from either (per numpy version, NEP 19).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .constraints import order_rows, stability_rows
from .model import FIXING_LABELS, PartCatalog, RelationMatrices

_INF = float("inf")
# fr/sfr give up on a draw that has not settled after this many passes
_MAX_PASSES = 50


class DisconnectedProduct(Exception):
    """The contact graph over non-ignored parts is not connected."""


@dataclass
class ContactConnectionGraph:
    """Nodes are non-ignored part ids; edges come from the contact matrix.

    Fixing nodes are screw/bolt-labeled parts; every edge incident to a
    fixing node is classed as a connection edge.
    """

    nodes: tuple[int, ...]
    fixing: frozenset[int]
    edges: tuple[tuple[int, int], ...]
    connection_edges: frozenset[tuple[int, int]]
    root: int
    neighbors: dict[int, tuple[int, ...]] = field(repr=False)

    @cached_property
    def root_layers(self) -> dict[float, tuple[int, ...]]:
        """Non-root nodes grouped by hop distance from the root over the
        whole graph, each group ascending."""
        return {d: tuple(group) for d, group in
                _layers(self, set(self.nodes), self.root).items()}

    @cached_property
    def fixers(self) -> dict[int, tuple[int, ...]]:
        """Each node's fixing neighbors other than the root, ascending."""
        return {pid: tuple(sorted(nb for nb in nbs
                                  if nb in self.fixing and nb != self.root))
                for pid, nbs in self.neighbors.items()}

    def to_dot(self) -> str:
        """Graphviz DOT text; box nodes are fixing parts, red edges connections."""
        lines = ["graph product {"]
        for n in self.nodes:
            shape = "box" if n in self.fixing else "circle"
            mark = ' style=bold' if n == self.root else ""
            lines.append(f'  {n} [shape={shape}{mark}];')
        for a, b in self.edges:
            color = "red" if (a, b) in self.connection_edges else "black"
            lines.append(f'  {a} -- {b} [color={color}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_ccg(catalog: PartCatalog,
              matrices: RelationMatrices) -> ContactConnectionGraph:
    """Build the graph and pick the root (base-labeled, else largest part).

    Raises DisconnectedProduct, naming the parts the root cannot reach, when
    the contact graph has more than one component; no stable removal order
    can exist for such a product.
    """
    nodes = tuple(matrices.part_order)
    fixing = frozenset(pid for pid in nodes
                       if catalog.by_id(pid).task_label in FIXING_LABELS)
    edges = [(nodes[i], nodes[k]) for i, k in
             np.argwhere(np.triu(matrices.contact, 1)).tolist()]
    adj: dict[int, list[int]] = {pid: [] for pid in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    connection = frozenset(e for e in edges
                           if e[0] in fixing or e[1] in fixing)

    base = catalog.base_part()
    if base is not None and not base.ignore:
        root = base.id
    else:
        root = max(nodes, key=lambda pid: (catalog.by_id(pid).size or 0.0,
                                           -pid))
    graph = ContactConnectionGraph(
        nodes=nodes, fixing=fixing, edges=tuple(edges),
        connection_edges=connection, root=root,
        neighbors={pid: tuple(nbs) for pid, nbs in adj.items()})
    missing = list(graph.root_layers.get(_INF, ()))
    if missing:
        raise DisconnectedProduct(
            f"contact graph is disconnected; unreachable parts {missing}")
    return graph


def _hop_distances(graph: ContactConnectionGraph, present: set[int],
                   root: int) -> dict[int, float]:
    dist = {pid: _INF for pid in present}
    dist[root] = 0.0
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nb in graph.neighbors[cur]:
            if nb in present and dist[nb] == _INF:
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist


def _layers(graph: ContactConnectionGraph, present: set[int],
            root: int) -> dict[float, list[int]]:
    """Non-root present nodes grouped by hop distance, each group sorted."""
    layers: dict[float, list[int]] = {}
    for pid, d in _hop_distances(graph, present, root).items():
        if pid != root:
            layers.setdefault(d, []).append(pid)
    for group in layers.values():
        group.sort()
    return layers


def ccgi_init(graph: ContactConnectionGraph,
              rng: np.random.Generator) -> np.ndarray:
    """Graph-guided initial sequence; the result is always stable.

    Repeatedly: take hop distances from the root over the remaining graph,
    pick a random node at maximum distance, and remove it if it is a fixing
    part - otherwise remove a random fixing neighbor that fastens it (the
    node itself when it has none).  The root is removed last.  Nodes cut
    off from the root (possible only on adversarial inputs) count as being
    at maximum distance.

    Removing a node at the maximum distance changes no other node's
    distance, since no shortest path runs through it; the distances are
    recomputed only after a fixer nearer to the root was removed.  The
    whole-graph layers and fixer lists are computed once per graph.
    """
    present = set(graph.nodes)
    root = graph.root
    removal: list[int] = []
    layers = {d: list(group) for d, group in graph.root_layers.items()}
    while len(present) > 1:
        far = max(layers)
        candidates = layers[far]
        picked = candidates[rng.integers(len(candidates))]
        if picked not in graph.fixing:
            fixers = [nb for nb in graph.fixers[picked] if nb in present]
            if fixers:
                picked = fixers[rng.integers(len(fixers))]
        removal.append(picked)
        present.remove(picked)
        if picked in candidates:
            candidates.remove(picked)
            if not candidates:
                del layers[far]
        else:
            layers = _layers(graph, present, root)
    removal.append(root)
    return np.array(removal[::-1], dtype=np.int64)


def random_init(catalog: PartCatalog,
                rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of the non-ignored part ids."""
    ids = np.array(catalog.non_ignored_ids(), dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("catalog has no non-ignored parts")
    return rng.permutation(ids)


def _pack_rows(rows: np.ndarray) -> list[list[int]]:
    """Boolean weight rows ``W[a, m, b]`` as Python ints: ``out[a][m]`` has
    bit b set when ``W[a, m, b]`` is, so a term check against a bit mask of
    the parts below costs one integer AND per option."""
    packed = np.packbits(rows, axis=2, bitorder="little")
    return [[int.from_bytes(row.tobytes(), "little") for row in options]
            for options in packed]


class RepairMasks(NamedTuple):
    """What fr/sfr read of one product, by part index: the strict order
    rows and the contact (stability) row as bit masks, and the contacts as
    index lists."""

    order: list[list[int]]
    support: list[int]
    touching: list[list[int]]

    @classmethod
    def of(cls, matrices: RelationMatrices) -> "RepairMasks":
        return cls(_pack_rows(order_rows(matrices, "strict")),
                   [rows[0] for rows in _pack_rows(stability_rows(matrices))],
                   [np.flatnonzero(row).tolist() for row in matrices.contact])


def _rearrange(matrices: RelationMatrices, rng: np.random.Generator,
               with_stability: bool, masks: RepairMasks | None) -> np.ndarray:
    order, support, touching = masks or RepairMasks.of(matrices)
    ids = np.array(matrices.part_order, dtype=np.int64)
    n = len(ids)
    # the same draws as ``rng.permutation(ids)``, as indices into ids
    perm = rng.permutation(n).tolist()
    where = np.argsort(perm).tolist()
    for _ in range(_MAX_PASSES):
        swapped = False
        # bit b of ``below``: part b sits at a position below k
        below = (1 << n) - 1
        for k in range(n - 1, 0, -1):
            a = perm[k]
            below ^= 1 << a
            if all(map(below.__and__, order[a])):
                # cannot escape what remains: delay it (random earlier slot)
                r = int(rng.integers(k))
            elif with_stability and not support[a] & below and touching[a]:
                # stranded after all its contacts: advance it to a random
                # slot at or above its latest-removed neighbor, so one
                # support outlives it (a downward swap can never fix this)
                r = int(rng.integers(min(where[b] for b in touching[a]), n))
            else:
                continue
            c = perm[r]
            perm[k], perm[r] = c, a
            where[a], where[c] = r, k
            if r < k:
                below ^= 1 << a | 1 << c
            swapped = True
        if not swapped:
            break
    return ids[perm]


def fr_init(catalog: PartCatalog, matrices: RelationMatrices,
            rng: np.random.Generator, *,
            masks: RepairMasks | None = None) -> np.ndarray:
    """Random permutation repaired toward interference feasibility.

    Scans positions last-to-second; a violating part is swapped to a random
    earlier (later-removed) slot.  The result may still violate.  ``masks``
    of the same product spare building them on every draw.
    """
    return _rearrange(matrices, rng, False, masks)


def sfr_init(catalog: PartCatalog, matrices: RelationMatrices,
             rng: np.random.Generator, *,
             masks: RepairMasks | None = None) -> np.ndarray:
    """Like fr_init but also repairs the connection (stability) terms."""
    return _rearrange(matrices, rng, True, masks)


INIT_METHODS = ("ri", "fr", "sfr", "ccgi")


def make_initializer(method: str, catalog: PartCatalog,
                     matrices: RelationMatrices):
    """Bind an initializer name to a ``f(rng) -> sequence`` callable."""
    if method == "ri":
        return lambda rng: random_init(catalog, rng)
    if method in ("fr", "sfr"):
        masks = RepairMasks.of(matrices)
        if method == "fr":
            return lambda rng: fr_init(catalog, matrices, rng, masks=masks)
        return lambda rng: sfr_init(catalog, matrices, rng, masks=masks)
    if method == "ccgi":
        graph = build_ccg(catalog, matrices)
        return lambda rng: ccgi_init(graph, rng)
    raise ValueError(f"unknown initializer {method!r}; "
                     f"expected one of {INIT_METHODS}")
