"""Biregular bipartite base graphs: construction, expansion audits, text files.

The left side holds bit vertices, the right side holds check vertices.  Decoding
theorems downstream are conditional on vertex expansion, which no random
construction certifies analytically at these sizes — so expansion is *audited*
(exactly, by a branch-and-bound search over subsets, where feasible; sampled
otherwise) and the audited profile travels with experiment reports.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

__all__ = [
    "BipartiteGraph",
    "ExpansionProfile",
    "GraphConstructionError",
    "GraphParseError",
    "LineParseError",
    "content_lines",
    "read_ascii",
    "gen_biregular",
    "audit_expansion",
    "graph_to_text",
    "graph_from_text",
    "write_graph",
    "read_graph",
]

_SWAP_CAP = 10**6


class GraphConstructionError(ValueError):
    """Raised for impossible degree requests or invalid adjacency data."""


class LineParseError(ValueError):
    """A malformed line of a text file; carries its 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GraphParseError(LineParseError):
    """Raised on malformed graph files."""


def content_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """``(line_no, raw, stripped)`` for every line of ``text`` that is neither
    blank nor a ``#`` comment; line numbers count from 1 over all lines."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, raw, line


def read_ascii(path) -> str:
    """The text of an input file, which must be ASCII.  A byte outside ASCII
    raises ``LineParseError`` naming its line, numbered as ``content_lines``
    numbers them."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("ascii")
        # "x" stands in for the bad byte, which starts a line after a break.
        line_no = len((head + "x").splitlines())
        raise LineParseError(line_no, f"non-ASCII byte {data[exc.start]:#04x}") from None


@dataclass(frozen=True)
class BipartiteGraph:
    """A simple (delta_v, delta_c)-biregular bipartite graph.

    ``adj_v[v]`` lists the check neighbors of left vertex ``v`` ascending;
    ``adj_c[c]`` lists the bit neighbors of right vertex ``c`` ascending.
    Instances are immutable and safe to share across threads.
    """

    n: int
    m: int
    delta_v: int
    delta_c: int
    adj_v: tuple[tuple[int, ...], ...]
    adj_c: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n * self.delta_v != self.m * self.delta_c:
            raise GraphConstructionError(
                f"handshake violated: {self.n}*{self.delta_v} != {self.m}*{self.delta_c}"
            )
        if len(self.adj_v) != self.n or len(self.adj_c) != self.m:
            raise GraphConstructionError("adjacency list count does not match side size")
        for v, nbrs in enumerate(self.adj_v):
            if len(nbrs) != self.delta_v or len(set(nbrs)) != self.delta_v:
                raise GraphConstructionError(f"left vertex {v} does not have {self.delta_v} distinct neighbors")
            if list(nbrs) != sorted(nbrs) or (nbrs and not (0 <= nbrs[0] and nbrs[-1] < self.m)):
                raise GraphConstructionError(f"left vertex {v} has unsorted or out-of-range neighbors")
        edge_set = {(v, c) for v, nbrs in enumerate(self.adj_v) for c in nbrs}
        count = 0
        for c, nbrs in enumerate(self.adj_c):
            if len(nbrs) != self.delta_c or len(set(nbrs)) != self.delta_c:
                raise GraphConstructionError(f"right vertex {c} does not have {self.delta_c} distinct neighbors")
            if list(nbrs) != sorted(nbrs):
                raise GraphConstructionError(f"right vertex {c} has unsorted neighbors")
            for v in nbrs:
                if (v, c) not in edge_set:
                    raise GraphConstructionError("adj_v and adj_c disagree on the edge set")
                count += 1
        if count != len(edge_set):
            raise GraphConstructionError("adj_v and adj_c disagree on the edge set")

    @classmethod
    def from_left_adjacency(cls, m: int, adj_v) -> BipartiteGraph:
        """Build from left-side lists alone; degrees are inferred and checked."""
        adj_v = tuple(tuple(sorted(nbrs)) for nbrs in adj_v)
        if not adj_v:
            raise GraphConstructionError("empty left side")
        delta_v = len(adj_v[0])
        buckets: list[list[int]] = [[] for _ in range(m)]
        for v, nbrs in enumerate(adj_v):
            for c in nbrs:
                if not 0 <= c < m:
                    raise GraphConstructionError(f"neighbor {c} of left vertex {v} out of range")
                buckets[c].append(v)
        adj_c = tuple(tuple(sorted(b)) for b in buckets)
        delta_c = len(adj_c[0]) if adj_c else 0
        return cls(len(adj_v), m, delta_v, delta_c, adj_v, adj_c)

    def left_masks(self) -> list[int]:
        """Per-left-vertex neighbor sets as bit masks over right vertices."""
        out = []
        for nbrs in self.adj_v:
            acc = 0
            for c in nbrs:
                acc |= 1 << c
            out.append(acc)
        return out

    def right_masks(self) -> list[int]:
        out = []
        for nbrs in self.adj_c:
            acc = 0
            for v in nbrs:
                acc |= 1 << v
            out.append(acc)
        return out


@dataclass(frozen=True)
class ExpansionProfile:
    """Audited worst-case expansion, per subset size.

    ``worst_epsilon_by_size[s]`` is the largest ``1 - |Γ(S)|/(Δ·s)`` seen over
    the audited size-``s`` subsets, never negative since |Γ(S)| ≤ Δ·s.
    ``certified`` is True only when every subset up to ``max_set_size`` was
    enumerated.
    """

    side: str
    max_set_size: int
    worst_epsilon_by_size: dict[int, Fraction]
    certified: bool

    def worst_up_to(self, s_max: int | None = None) -> Fraction:
        s_max = self.max_set_size if s_max is None else s_max
        eps = [e for s, e in self.worst_epsilon_by_size.items() if s <= s_max]
        return max(eps) if eps else Fraction(0)


def _side_data(graph: BipartiteGraph, side: str):
    if side == "left":
        return graph.n, graph.delta_v, graph.adj_v
    if side == "right":
        return graph.m, graph.delta_c, graph.adj_c
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def audit_expansion(
    graph: BipartiteGraph,
    side: str,
    s_max: int,
    samples: int | None = None,
    sample_seed: int = 0,
) -> ExpansionProfile:
    """Measure worst-case expansion for subset sizes 1..s_max.

    With ``samples`` unset the profile is certified: the smallest |Γ(S)|
    over every size-s subset comes from an exact branch-and-bound search
    (``_min_gamma``), started from a |Γ| some subset reaches and stopped
    early at a |Γ| no subset beats.  Otherwise ``samples`` (at least 1) random subsets per
    size are drawn from a generator seeded with ``sample_seed``, the
    smallest |Γ(S)| among them is taken, and the profile is an estimate.
    """
    size, degree, _ = _side_data(graph, side)
    if s_max < 1:
        raise ValueError("s_max must be at least 1")
    if s_max > size:
        raise ValueError(f"s_max {s_max} exceeds {side}-side cardinality {size}")
    if samples is not None and samples < 1:
        raise ValueError("samples must be at least 1")
    masks = graph.left_masks() if side == "left" else graph.right_masks()
    rng = random.Random(sample_seed)
    worst: dict[int, Fraction] = {}
    min_gamma = 0
    # The most neighbours two vertices share: Δ until size 2 measures it.
    shared = degree
    for s in range(1, s_max + 1):
        if samples is None:
            # A smallest (s-1)-subset plus any vertex reaches best[s-1] + Δ.
            # Any size-s subset is a size-(s-1) one plus a vertex sharing at
            # most `shared` neighbours with each of the s-1 others, so none
            # goes below best[s-1] + Δ - (s-1)·shared.
            floor = min_gamma + max(0, degree - (s - 1) * shared)
            min_gamma = _min_gamma(masks, s, min_gamma + degree, floor)
            if s == 2:
                shared = 2 * degree - min_gamma
        else:
            min_gamma = degree * s
            for _ in range(samples):
                acc = 0
                for v in rng.sample(range(size), s):
                    acc |= masks[v]
                min_gamma = min(min_gamma, acc.bit_count())
        worst[s] = 1 - Fraction(min_gamma, degree * s)
    return ExpansionProfile(side, s_max, worst, samples is None)


def _min_gamma(masks: list[int], s: int, bound: int, floor: int) -> int:
    """The smallest |Γ(S)| over the size-s subsets S, given that some size-s
    subset reaches ``bound`` and none goes below ``floor``: a depth-first
    search over ascending index prefixes that lowers ``bound`` to each
    smaller |Γ| it meets, and stops once ``bound`` reaches ``floor``.

    |Γ| only grows as members join, so a prefix whose |Γ| is already at
    least ``bound`` cannot lead below it and is not extended.  The last
    member is scanned in one pass of C-level ``map``/``min`` over the
    remaining masks."""
    size = len(masks)

    def extend(acc: int, start: int, left: int) -> bool:
        """Search the completions of a prefix; True once bound is at floor."""
        nonlocal bound
        if left == 1:
            bound = min(bound, min(map(int.bit_count, map(acc.__or__, masks[start:]))))
            return bound <= floor
        for i in range(start, size - left + 1):
            nxt = acc | masks[i]
            if nxt.bit_count() < bound and extend(nxt, i + 1, left - 1):
                return True
        return False

    if bound > floor:
        extend(0, 0, s)
    return bound


def gen_biregular(n: int, delta_v: int, delta_c: int, seed: int) -> BipartiteGraph:
    """Random simple (delta_v, delta_c)-biregular graph on (n, n·delta_v/delta_c).

    Configuration model followed by random edge swaps until no multi-edge
    remains; deterministic for a fixed seed.  If a repair run exceeds its swap
    budget the whole generation restarts with the next seed (still a pure
    function of the original seed).
    """
    if delta_v < 1 or delta_c < delta_v:
        raise GraphConstructionError(f"need delta_c >= delta_v >= 1, got ({delta_v}, {delta_c})")
    if (n * delta_v) % delta_c != 0:
        raise GraphConstructionError(f"n*delta_v = {n * delta_v} not divisible by delta_c = {delta_c}")
    m = n * delta_v // delta_c
    if delta_v > m:
        raise GraphConstructionError(f"delta_v = {delta_v} exceeds right side size m = {m}")
    if delta_c > n:
        raise GraphConstructionError(f"delta_c = {delta_c} exceeds left side size n = {n}")

    attempt_seed = seed
    while True:
        rng = random.Random(attempt_seed)
        lefts = [v for v in range(n) for _ in range(delta_v)]
        rights = [c for c in range(m) for _ in range(delta_c)]
        rng.shuffle(rights)
        edges = list(zip(lefts, rights))
        if _make_simple(edges, rng):
            break
        attempt_seed += 1

    adj_v: list[list[int]] = [[] for _ in range(n)]
    for v, c in edges:
        adj_v[v].append(c)
    return BipartiteGraph.from_left_adjacency(m, adj_v)


def _make_simple(edges: list[tuple[int, int]], rng: random.Random) -> bool:
    """Random swaps until the edge list has no repeats; False if the budget runs out."""
    count: dict[tuple[int, int], int] = {}
    for e in edges:
        count[e] = count.get(e, 0) + 1
    attempts = 0
    while attempts < _SWAP_CAP:
        dup_positions = [i for i, e in enumerate(edges) if count[e] > 1]
        if not dup_positions:
            return True
        for i in dup_positions:
            attempts += 1
            if attempts >= _SWAP_CAP:
                return False
            j = rng.randrange(len(edges))
            u, v = edges[i]
            if count[(u, v)] < 2:
                continue
            x, y = edges[j]
            if i == j or (u, y) == (x, v):
                continue
            new_a, new_b = (u, y), (x, v)
            if count.get(new_a, 0) or count.get(new_b, 0):
                continue
            count[(u, v)] -= 1
            count[(x, y)] -= 1
            count[new_a] = count.get(new_a, 0) + 1
            count[new_b] = count.get(new_b, 0) + 1
            edges[i] = new_a
            edges[j] = new_b
    return False


# --- text format ---

def graph_to_text(graph: BipartiteGraph) -> str:
    """Canonical text form: ``n m delta_v delta_c`` header, then one line of
    ascending neighbors per left vertex.  Round-trips bit-exactly."""
    lines = [f"{graph.n} {graph.m} {graph.delta_v} {graph.delta_c}"]
    for nbrs in graph.adj_v:
        lines.append(" ".join(str(c) for c in nbrs))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> BipartiteGraph:
    """Parse the canonical text form.  Every line is checked before anything
    is built: the header must have sizes and degrees at least 1 that satisfy
    n·Δv = m·Δc, and each adjacency line Δv strictly ascending neighbours in
    [0, m) that give no check more than Δc neighbours, which with the
    handshake gives every check exactly Δc.  Only blank lines may follow
    the n adjacency lines.  Nothing of size m is allocated before all n
    lines pass, and those lines hold m·Δc entries, so m is bounded by the
    size of the text."""
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 4:
        raise GraphParseError(1, "header must be 'n m delta_v delta_c'")
    try:
        n, m, delta_v, delta_c = (int(x) for x in header)
    except ValueError:
        raise GraphParseError(1, "header fields must be integers") from None
    if min(n, m, delta_v, delta_c) < 1:
        raise GraphParseError(1, "sizes and degrees must be at least 1")
    if n * delta_v != m * delta_c:
        raise GraphParseError(1, f"handshake violated: {n}*{delta_v} != {m}*{delta_c}")
    if len(lines) < 1 + n:
        raise GraphParseError(len(lines), f"expected {n} adjacency lines, found {len(lines) - 1}")
    check_degree: dict[int, int] = {}
    adj_v = []
    for line_no, line in enumerate(lines[1:1 + n], start=2):
        try:
            nbrs = [int(x) for x in line.split()]
        except ValueError:
            raise GraphParseError(line_no, "neighbor fields must be integers") from None
        if len(nbrs) != delta_v:
            raise GraphParseError(line_no, f"expected {delta_v} neighbors, found {len(nbrs)}")
        if any(a >= b for a, b in zip(nbrs, nbrs[1:])):
            raise GraphParseError(line_no, "neighbors must be strictly ascending")
        if nbrs[0] < 0 or nbrs[-1] >= m:
            raise GraphParseError(line_no, f"neighbors must lie in [0, {m})")
        for c in nbrs:
            check_degree[c] = check_degree.get(c, 0) + 1
            if check_degree[c] > delta_c:
                raise GraphParseError(line_no, f"check {c} gets more than {delta_c} neighbors")
        adj_v.append(nbrs)
    for line_no, line in enumerate(lines[1 + n:], start=2 + n):
        if line.strip():
            raise GraphParseError(line_no, f"unexpected content after the {n} adjacency lines")
    return BipartiteGraph.from_left_adjacency(m, adj_v)


def write_graph(graph: BipartiteGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph_to_text(graph))


def read_graph(path) -> BipartiteGraph:
    return graph_from_text(read_ascii(path))
