"""The conceptual data model of Figure 6.1.

Four essential entity kinds — Version, Relation, File, Record — plus
Author. A :class:`Repository` holds the versions and is what queries run
against. Records carry optional ``parents``/``children`` links for
tuple-level provenance (Section 6.3.5); the provenance must obey the
version graph, which :meth:`Repository.validate` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Author:
    """A version author."""

    name: str
    email: str = ""


class VRecord:
    """A record (tuple) inside a relation of a version.

    Attribute values are exposed as Python attributes, so VQuel paths
    like ``E.employee_id`` resolve via plain ``getattr``.
    """

    __slots__ = ("id", "_values", "relation", "parents", "children")

    def __init__(self, record_id: str, values: dict[str, object]) -> None:
        self.id = record_id
        self._values = dict(values)
        self.relation: "VRelation | None" = None
        self.parents: list["VRecord"] = []
        self.children: list["VRecord"] = []

    def __getattr__(self, name: str) -> object:
        values = object.__getattribute__(self, "_values")
        if name in values:
            return values[name]
        raise AttributeError(
            f"record {self.id!r} has no attribute {name!r}"
        )

    @property
    def all(self) -> tuple:
        """The full value tuple, in column order when known."""
        relation = self.relation
        if relation is not None:
            return tuple(
                self._values.get(column) for column in relation.columns
            )
        return tuple(self._values.values())

    def values(self) -> dict[str, object]:
        return dict(self._values)

    @property
    def version(self) -> "VVersion | None":
        return self.relation.version if self.relation is not None else None

    def __repr__(self) -> str:
        return f"VRecord({self.id!r})"


class VRelation:
    """A relation inside one version: a fixed schema plus records."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        records: Iterable[VRecord] = (),
        changed: bool = False,
    ) -> None:
        self.name = name
        self.columns = list(columns)
        self.Tuples: list[VRecord] = []
        self.changed = changed
        self.version: "VVersion | None" = None
        for record in records:
            self.add_record(record)

    def add_record(self, record: VRecord) -> None:
        record.relation = self
        self.Tuples.append(record)

    #: VQuel uses both ``Tuples`` and ``Records`` in examples.
    @property
    def Records(self) -> list[VRecord]:
        return self.Tuples

    def __repr__(self) -> str:
        return f"VRelation({self.name!r}, {len(self.Tuples)} tuples)"


class VFile:
    """An unstructured file inside a version (no schema requirement)."""

    def __init__(self, full_path: str, content: bytes = b"", changed: bool = False) -> None:
        self.full_path = full_path
        self.name = full_path.rsplit("/", 1)[-1]
        self.content = content
        self.changed = changed
        self.version: "VVersion | None" = None

    def __repr__(self) -> str:
        return f"VFile({self.full_path!r})"


class VVersion:
    """A version: a commit grouping one or more relations and files."""

    def __init__(
        self,
        version_id: str,
        author: Author | None = None,
        commit_msg: str = "",
        creation_ts: float = 0.0,
        commit_ts: float | None = None,
    ) -> None:
        self.id = version_id
        self.commit_id = version_id
        self.author = author or Author("")
        self.commit_msg = commit_msg
        self.creation_ts = creation_ts
        self.commit_ts = commit_ts if commit_ts is not None else creation_ts
        self.Relations: list[VRelation] = []
        self.Files: list[VFile] = []
        self.parents: list["VVersion"] = []
        self.children: list["VVersion"] = []

    def add_relation(self, relation: VRelation) -> None:
        relation.version = self
        self.Relations.append(relation)

    def add_file(self, file: VFile) -> None:
        file.version = self
        self.Files.append(file)

    def relation(self, name: str) -> VRelation | None:
        for relation in self.Relations:
            if relation.name == name:
                return relation
        return None

    # ------------------------------------------------------------------
    # Graph traversal primitives (Section 6.3.4)
    # ------------------------------------------------------------------
    def P(self, hops: int | None = None) -> list["VVersion"]:
        """Ancestors within ``hops`` (all the way to the root if None)."""
        return _closure(self, lambda v: v.parents, hops)

    def D(self, hops: int | None = None) -> list["VVersion"]:
        """Descendants within ``hops``."""
        return _closure(self, lambda v: v.children, hops)

    def N(self, hops: int) -> list["VVersion"]:
        """Versions within ``hops`` edges in either direction."""
        seen = {id(self): self}
        frontier = [self]
        for _ in range(hops):
            next_frontier: list[VVersion] = []
            for version in frontier:
                for neighbor in version.parents + version.children:
                    if id(neighbor) not in seen:
                        seen[id(neighbor)] = neighbor
                        next_frontier.append(neighbor)
            frontier = next_frontier
        result = list(seen.values())
        result.remove(self)
        return result

    def __repr__(self) -> str:
        return f"VVersion({self.id!r})"


def _closure(start: VVersion, step, hops: int | None) -> list[VVersion]:
    result: list[VVersion] = []
    seen = {id(start)}
    frontier = [start]
    level = 0
    while frontier and (hops is None or level < hops):
        next_frontier: list[VVersion] = []
        for version in frontier:
            for reached in step(version):
                if id(reached) not in seen:
                    seen.add(id(reached))
                    result.append(reached)
                    next_frontier.append(reached)
        frontier = next_frontier
        level += 1
    return result


class Repository:
    """The queryable universe: all versions plus derived link structure."""

    def __init__(self, versions: Iterable[VVersion] = ()) -> None:
        self.versions: list[VVersion] = []
        self._by_id: dict[str, VVersion] = {}
        for version in versions:
            self.add_version(version)

    def add_version(self, version: VVersion) -> None:
        if version.id in self._by_id:
            raise ValueError(f"duplicate version id {version.id!r}")
        self.versions.append(version)
        self._by_id[version.id] = version

    def link(self, parent_id: str, child_id: str) -> None:
        parent = self._by_id[parent_id]
        child = self._by_id[child_id]
        parent.children.append(child)
        child.parents.append(parent)

    def version(self, version_id: str) -> VVersion:
        return self._by_id[version_id]

    def validate(self) -> None:
        """Check that record-level provenance obeys the version graph."""
        for version in self.versions:
            parent_versions = set(map(id, version.parents))
            for relation in version.Relations:
                for record in relation.Tuples:
                    for parent_record in record.parents:
                        parent_version = parent_record.version
                        if (
                            parent_version is not None
                            and id(parent_version) not in parent_versions
                        ):
                            raise ValueError(
                                f"record {record.id!r} in {version.id!r} has "
                                f"a provenance parent outside the version's "
                                f"parent set"
                            )

    # ------------------------------------------------------------------
    @classmethod
    def from_cvd(
        cls,
        cvd,
        relation_name: str | None = None,
        record_id_prefix: str = "r",
    ) -> "Repository":
        """Build a repository view over an OrpheusDB CVD.

        Every CVD version becomes a VVersion holding one relation;
        records shared between versions become distinct VRecord objects
        per version (the conceptual model is a per-version view) linked
        by provenance to the same record's appearance in parent versions.
        """
        relation_name = relation_name or cvd.name
        repository = cls()
        #: (vid, rid) -> VRecord, for provenance linking.
        instances: dict[tuple[int, int], VRecord] = {}
        columns = cvd.schema.column_names
        for vid in cvd.versions.vids():
            metadata = cvd.versions.get(vid)
            version = VVersion(
                version_id=f"v{vid:02d}",
                author=Author(metadata.author),
                commit_msg=metadata.message,
                creation_ts=metadata.commit_time or 0.0,
            )
            parent_rids: dict[int, tuple[int, ...]] = {}
            changed = False
            membership = cvd.membership(vid)
            for parent in metadata.parents:
                parent_rids[parent] = tuple(cvd.membership(parent))
                if cvd.membership(parent) != membership:
                    changed = True
            if not metadata.parents:
                changed = True
            relation = VRelation(relation_name, columns, changed=changed)
            payloads = cvd.payloads_of(membership, vid)
            for rid, payload in zip(membership, payloads):
                record = VRecord(
                    f"{record_id_prefix}{rid}",
                    dict(zip(columns, payload)),
                )
                relation.add_record(record)
                instances[(vid, rid)] = record
                for parent in metadata.parents:
                    parent_instance = instances.get((parent, rid))
                    if parent_instance is not None:
                        record.parents.append(parent_instance)
                        parent_instance.children.append(record)
            version.add_relation(relation)
            repository.add_version(version)
            for parent in metadata.parents:
                repository.link(f"v{parent:02d}", f"v{vid:02d}")
        return repository
