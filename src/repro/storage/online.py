"""Online storage planning (the Chapter 7 future-work extension).

The chapter studies the *static* problem: all versions known up front.
In practice versions arrive continuously; re-running a global solver per
arrival is wasteful. :class:`OnlineVersionedStore` plans incrementally:

* each arriving version is stored as the cheapest delta among its
  revealed candidates (derivation parents plus a similarity probe
  against recently materialized versions) **subject to** a recreation
  budget θ — the online analogue of Problem 6;
* when no candidate satisfies θ, the version is materialized;
* a drift trigger (like Section 5.4's tolerance factor) re-runs the
  static MP solver when the online plan's storage exceeds µ times the
  static optimum, and rebuilds the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.invariants import MU, within_tolerance
from repro.storage.deltas import DeltaCodec
from repro.storage.graph import ROOT, StorageGraph, StoragePlan
from repro.storage.solvers.mp import mp_min_storage


@dataclass
class OnlineStats:
    """Counters for the online planner's behaviour."""

    versions_added: int = 0
    materialized: int = 0
    delta_stored: int = 0
    replans: int = 0


class OnlineVersionedStore:
    """Incrementally planned compact storage for arriving versions."""

    def __init__(
        self,
        codec: DeltaCodec,
        max_recreation: float,
        tolerance: float = MU,
        probe_materialized: int = 3,
    ) -> None:
        """Args:
        codec: Delta codec for artifacts.
        max_recreation: θ — no version's recreation cost may exceed it.
        tolerance: µ — replan when online storage > µ x static optimum.
        probe_materialized: How many recently materialized versions to
            diff against, besides the declared parents, when a new
            version arrives (cheap extra "revealed" entries).
        """
        self.codec = codec
        self.max_recreation = max_recreation
        self.tolerance = tolerance
        self.probe_materialized = probe_materialized
        self.stats = OnlineStats()
        self._artifacts: dict[int, object] = {}
        self._parent: dict[int, int] = {}
        self._deltas: dict[tuple[int, int], object] = {}
        self._recreation: dict[int, float] = {}
        self._storage_cost: dict[int, float] = {}
        #: revealed graph entries for replanning: (u, v) -> (Δ, Φ).
        self._edges: dict[tuple[int, int], tuple[float, float]] = {}

    # ------------------------------------------------------------------
    def add_version(
        self, vid: int, artifact: object, parents: tuple[int, ...] = ()
    ) -> None:
        """Store an arriving version under the online policy."""
        if vid in self._artifacts:
            raise ValueError(f"version {vid} already stored")
        self._artifacts[vid] = artifact
        self.stats.versions_added += 1

        materialize_delta, materialize_phi = self.codec.materialize_cost(
            artifact
        )
        self._edges[(ROOT, vid)] = (materialize_delta, materialize_phi)

        candidates = list(parents)
        recent_materialized = [
            v
            for v, parent in self._parent.items()
            if parent == ROOT and v not in candidates
        ][-self.probe_materialized :]
        candidates.extend(recent_materialized)

        best_source = ROOT
        best_cost = materialize_delta
        best_delta = None
        best_recreation = materialize_phi
        for source in candidates:
            if source not in self._artifacts:
                raise ValueError(f"unknown candidate version {source}")
            delta = self.codec.diff(self._artifacts[source], artifact)
            self._edges[(source, vid)] = (
                delta.storage_cost,
                delta.recreation_cost,
            )
            recreation = self._recreation[source] + delta.recreation_cost
            if recreation > self.max_recreation:
                continue
            if delta.storage_cost < best_cost:
                best_source = source
                best_cost = delta.storage_cost
                best_delta = delta
                best_recreation = recreation

        if materialize_phi > self.max_recreation and best_delta is None:
            raise ValueError(
                f"version {vid} cannot meet recreation budget "
                f"{self.max_recreation}"
            )

        self._parent[vid] = best_source
        self._storage_cost[vid] = best_cost
        self._recreation[vid] = best_recreation
        if best_source == ROOT:
            self.stats.materialized += 1
        else:
            self._deltas[(best_source, vid)] = best_delta
            self.stats.delta_stored += 1

        self._maybe_replan()

    # ------------------------------------------------------------------
    def _maybe_replan(self) -> None:
        if len(self._artifacts) < 4:
            return
        online_storage = self.total_storage_cost()
        graph = self.graph()
        static_plan = mp_min_storage(graph, self.max_recreation)
        static_storage = static_plan.total_storage_cost(graph)
        if not within_tolerance(online_storage, static_storage, self.tolerance):
            self._adopt(static_plan)
            self.stats.replans += 1

    def _adopt(self, plan: StoragePlan) -> None:
        self._parent = dict(plan.parent)
        self._deltas = {}
        graph = self.graph()
        recreation = plan.recreation_costs(graph)
        for vid, parent in self._parent.items():
            self._recreation[vid] = recreation[vid]
            self._storage_cost[vid] = graph.storage_weight(parent, vid)
            if parent != ROOT:
                self._deltas[(parent, vid)] = self.codec.diff(
                    self._artifacts[parent], self._artifacts[vid]
                )

    # ------------------------------------------------------------------
    def graph(self) -> StorageGraph:
        graph = StorageGraph(
            num_versions=len(self._artifacts),
            symmetric=self.codec.symmetric,
        )
        graph.edges.update(self._edges)
        return graph

    def plan(self) -> StoragePlan:
        return StoragePlan(dict(self._parent))

    def total_storage_cost(self) -> float:
        return sum(self._storage_cost.values())

    def recreation_cost(self, vid: int) -> float:
        return self._recreation[vid]

    def retrieve(self, vid: int):
        chain: list[int] = []
        current = vid
        while self._parent[current] != ROOT:
            chain.append(current)
            current = self._parent[current]
        artifact = self._artifacts[current]  # materialized copy
        for node in reversed(chain):
            delta = self._deltas.get((self._parent[node], node))
            if delta is None:
                delta = self.codec.diff(
                    self._artifacts[self._parent[node]],
                    self._artifacts[node],
                )
            artifact = self.codec.apply(artifact, delta)
        return artifact
