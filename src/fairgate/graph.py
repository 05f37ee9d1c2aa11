"""Causal graphs: validated DAGs over named variables.

A graph is immutable once built.  Construction validates names, rejects
self-loops, duplicate edges and cycles (found by a Kahn count, worded by
the witness walk that ``graphlib`` finds), and precomputes the adjacency
maps every other module queries.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter

from .errors import (
    CycleDetected,
    DuplicateEdge,
    InputError,
    MalformedName,
    SelfLoop,
    UndecodableFile,
    UnknownVariable,
)

__all__ = [
    "RESERVED_NAME_CHARS",
    "BOM",
    "validate_name",
    "CausalGraph",
    "parse_graph",
    "read_text",
    "load_graph",
]

# Characters that would collide with the file and DSL syntax.
RESERVED_NAME_CHARS = frozenset("->:,=@#")


def validate_name(name: str) -> str:
    """Return ``name`` if it is a legal variable name, else raise MalformedName."""
    if not isinstance(name, str) or not name:
        raise MalformedName("variable names must be non-empty strings")
    bad = {c for c in name if c in RESERVED_NAME_CHARS or c.isspace()}
    if bad:
        shown = "".join(sorted(bad))
        raise MalformedName(f"variable name {name!r} contains reserved characters: {shown!r}")
    return name


class CausalGraph:
    """A directed acyclic graph of variables.

    ``nodes`` and ``edges`` are frozensets; all query methods are pure, so
    instances can be shared freely (including across threads).  ``names``
    is the nodes in sorted order and ``index`` maps each name to its
    position there: node i is ``names[i]`` in every int node mask and key.
    """

    __slots__ = (
        "nodes", "edges", "names", "index", "_parents", "_children", "_neighbors", "_descendants",
    )

    def __init__(self, nodes=(), edges=()):
        node_set = set()

        def add(name):
            # Each distinct name is validated once, where it first appears.
            if not isinstance(name, str) or name not in node_set:
                node_set.add(validate_name(name))

        for name in nodes:
            add(name)
        edge_list = []
        seen = set()
        for edge in edges:
            source, target = edge
            add(source)
            add(target)
            if source == target:
                raise SelfLoop(f"self-loop on {source!r}")
            pair = (source, target)
            if pair in seen:
                raise DuplicateEdge(f"edge {source} -> {target} given twice")
            seen.add(pair)
            edge_list.append(pair)

        self.nodes: frozenset[str] = frozenset(node_set)
        self.edges: frozenset[tuple[str, str]] = frozenset(edge_list)
        self.names: tuple[str, ...] = tuple(sorted(node_set))
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.names)}

        parents: dict[str, list[str]] = {v: [] for v in node_set}
        children: dict[str, list[str]] = {v: [] for v in node_set}
        for source, target in edge_list:
            children[source].append(target)
            parents[target].append(source)
        self._parents = {v: tuple(sorted(ps)) for v, ps in parents.items()}
        self._children = {v: tuple(sorted(cs)) for v, cs in children.items()}
        self._neighbors = {
            v: tuple(sorted(set(parents[v]) | set(children[v]))) for v in node_set
        }
        self._descendants: dict[str, frozenset[str]] = {}

        # Kahn's count: the graph is acyclic iff every node can be removed
        # once all of its parents have been.
        waiting = {v: len(ps) for v, ps in self._parents.items()}
        ready = [v for v, count in waiting.items() if not count]
        for v in ready:  # ready grows while it is read
            for c in self._children[v]:
                waiting[c] -= 1
                if not waiting[c]:
                    ready.append(c)
        if len(ready) < len(node_set):
            # graphlib words the witness: fed every name, then each name's
            # sorted parents, in name order, it walks a deterministic cycle.
            sorter = TopologicalSorter()
            for v in self.names:
                sorter.add(v)
            for v in self.names:
                sorter.add(v, *self._parents[v])
            try:
                sorter.prepare()
            except CycleError as exc:
                raise CycleDetected(exc.args[1]) from None

    def require_node(self, name: str) -> None:
        """UnknownVariable unless ``name`` is a node of the graph."""
        if name not in self.nodes:
            raise UnknownVariable(f"variable {name!r} is not a node of the graph")

    def parents(self, v: str) -> tuple[str, ...]:
        self.require_node(v)
        return self._parents[v]

    def children(self, v: str) -> tuple[str, ...]:
        self.require_node(v)
        return self._children[v]

    def undirected_neighbors(self, v: str) -> tuple[str, ...]:
        self.require_node(v)
        return self._neighbors[v]

    def descendants(self, x: str) -> frozenset[str]:
        """All nodes reachable from ``x`` by directed edges, excluding ``x``."""
        self.require_node(x)
        cached = self._descendants.get(x)
        if cached is not None:
            return cached
        seen: set[str] = set()
        frontier = list(self._children[x])
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._children[node])
        result = frozenset(seen)
        self._descendants[x] = result
        return result

    def node_mask(self, names) -> int:
        """The int with bit i set for each given name that is ``names[i]``:
        the node numbering every int node mask uses."""
        mask = 0
        try:
            for name in names:
                mask |= 1 << self.index[name]
        except KeyError as exc:
            raise UnknownVariable(f"variable {exc.args[0]!r} is not a node of the graph") from None
        return mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"CausalGraph(nodes={sorted(self.nodes)}, edges={sorted(self.edges)})"


def parse_graph(text: str) -> CausalGraph:
    """Parse the plain-text graph format.

    One item per line: ``A -> B`` declares an edge, ``node X`` declares an
    isolated node, ``#`` starts a comment, blank lines are ignored.
    """
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    valid: set[str] = set()  # the names validated so far, each once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("node "):
            names = (line[len("node "):].strip(),)
            nodes.append(names[0])
        elif "->" in line:
            left, _, right = line.partition("->")
            names = (left.strip(), right.strip())
            edges.append(names)
        else:
            raise InputError(
                f"line {lineno}: expected 'A -> B', 'node X', comment or blank, got {line!r}"
            )
        try:
            for name in names:
                if name not in valid:
                    valid.add(validate_name(name))
        except MalformedName as exc:
            raise MalformedName(f"line {lineno}: {exc}") from None
    return CausalGraph(nodes, edges)


# U+FEFF at the start of a file is a byte-order mark, not text: spreadsheet
# "CSV UTF-8" exports and some editors write one.  It is dropped by hand, as
# the utf-8-sig codec would, because looking that codec up imports a module
# in every fresh process.
BOM = "\ufeff"


def read_text(path) -> str:
    """The whole of a UTF-8 text file, without a leading byte-order mark;
    UndecodableFile if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read().removeprefix(BOM)
        except UnicodeDecodeError:
            raise UndecodableFile(f"{path}: not valid UTF-8 text") from None


def load_graph(path) -> CausalGraph:
    """Read a graph file (see :func:`parse_graph` for the format)."""
    return parse_graph(read_text(path))
