"""Causal graphs: validated DAGs over named variables.

A graph is immutable once built.  Construction validates names, rejects
self-loops, duplicate edges and cycles (found by a Kahn count, worded by
the witness walk that ``graphlib`` finds), and builds the one adjacency,
on node indices, that the rule engine and the d-separation oracle read.
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
    # An identifier holds no whitespace and no reserved character, and
    # str.isidentifier tests that in C, so most names stop here.
    if isinstance(name, str) and name.isidentifier():
        return name
    if not isinstance(name, str) or not name:
        raise MalformedName("variable names must be non-empty strings")
    bad = {c for c in name if c in RESERVED_NAME_CHARS or c.isspace()}
    if bad:
        shown = "".join(sorted(bad))
        raise MalformedName(f"variable name {name!r} contains reserved characters: {shown!r}")
    return name


class CausalGraph:
    """A directed acyclic graph of variables.

    ``nodes`` and ``edges`` are frozensets.  ``names`` is the nodes in
    sorted order and ``index`` maps each name to its position there: node
    i is ``names[i]`` in every int node mask and key.  The one adjacency
    is on those indices: ``parents[i]``, ``children[i]`` and
    ``neighbors[i]`` (parents and children together) are sorted tuples of
    node indices, so index order keeps name order.  Nothing changes after
    construction, so instances can be shared freely, across threads too.
    """

    __slots__ = ("nodes", "edges", "names", "index", "parents", "children", "neighbors")

    def __init__(self, nodes=(), edges=()):
        node_set = set()

        def add(name):
            # Each distinct name is validated once, where it first appears.
            if not isinstance(name, str) or name not in node_set:
                node_set.add(validate_name(name))

        for name in nodes:
            add(name)
        edge_set = set()
        for source, target in edges:
            add(source)
            add(target)
            if source == target:
                raise SelfLoop(f"self-loop on {source!r}")
            pair = (source, target)
            if pair in edge_set:
                raise DuplicateEdge(f"edge {source} -> {target} given twice")
            edge_set.add(pair)

        self.nodes: frozenset[str] = frozenset(node_set)
        self.edges: frozenset[tuple[str, str]] = frozenset(edge_set)
        self.names: tuple[str, ...] = tuple(sorted(node_set))
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.names)}
        names, index = self.names, self.index

        # Filled in index-pair order, each list arrives sorted.
        parents: list[list[int]] = [[] for _ in names]
        children: list[list[int]] = [[] for _ in names]
        for s, t in sorted([(index[source], index[target]) for source, target in edge_set]):
            children[s].append(t)
            parents[t].append(s)
        self.parents: tuple[tuple[int, ...], ...] = tuple(map(tuple, parents))
        self.children: tuple[tuple[int, ...], ...] = tuple(map(tuple, children))
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(
            [tuple(sorted(ps + cs)) for ps, cs in zip(parents, children)]
        )

        # Kahn's count: the graph is acyclic iff every node can be removed
        # once all of its parents have been.
        waiting = [len(ps) for ps in parents]
        ready = [v for v, count in enumerate(waiting) if not count]
        for v in ready:  # ready grows while it is read
            for c in children[v]:
                waiting[c] -= 1
                if not waiting[c]:
                    ready.append(c)
        if len(ready) < len(names):
            # graphlib words the witness: fed every name, then each name's
            # sorted parents, in name order, it walks a deterministic cycle.
            sorter = TopologicalSorter()
            for v in names:
                sorter.add(v)
            for v, ps in zip(names, self.parents):
                sorter.add(v, *[names[p] for p in ps])
            try:
                sorter.prepare()
            except CycleError as exc:
                raise CycleDetected(exc.args[1]) from None

    def require_node(self, name: str) -> None:
        """UnknownVariable unless ``name`` is a node of the graph."""
        if name not in self.nodes:
            raise UnknownVariable(f"variable {name!r} is not a node of the graph")

    def pair_index(self, x: str, y: str) -> tuple[int, int]:
        """The node indices (i, j), i < j, of names x and y: every pair read's
        one check.  ``require_node``'s UnknownVariable for the first unknown
        name given; ValueError for a node paired with itself."""
        index = self.index
        i, j = index.get(x), index.get(y)
        if i is None or j is None:
            self.require_node(x)
            self.require_node(y)
        if i == j:
            raise ValueError("path endpoints must differ")
        return (i, j) if i < j else (j, i)

    def edge_between(self, i: int, j: int) -> tuple[str, str] | None:
        """The edge between nodes ``names[i]`` and ``names[j]``, i's out-edge
        first, or None: Condition 1 by index, for ``check_condition1`` and the sweep."""
        if j in self.children[i]:
            return self.names[i], self.names[j]
        if i in self.children[j]:
            return self.names[j], self.names[i]
        return None

    def node_mask(self, names) -> int:
        """The int with bit i set for each given name that is ``names[i]``:
        the node numbering every int node mask uses."""
        mask = 0
        for name in names:
            if name not in self.index:
                self.require_node(name)
            mask |= 1 << self.index[name]
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
    isolated node, ``#`` starts a comment, blank lines are ignored.  Names
    hold no ``->``, so a line that does is an edge, ``node -> X`` included.
    """
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    valid: set[str] = set()  # the names validated so far, each once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            names = (left.strip(), right.strip())
            edges.append(names)
        elif line.startswith("node "):
            names = (line[len("node "):].strip(),)
            nodes.append(names[0])
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
    UndecodableFile if it is not UTF-8.  Line ends are kept as written, so
    a CSV reader sees its records' own; ``str.splitlines`` reads CRLF, a lone
    CR and LF each as one line break."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            return handle.read().removeprefix(BOM)
        except UnicodeDecodeError:
            raise UndecodableFile(f"{path}: not valid UTF-8 text") from None


def load_graph(path) -> CausalGraph:
    """Read a graph file (see :func:`parse_graph` for the format)."""
    return parse_graph(read_text(path))
