"""Covers, multicovers, oddities, gradings, showers, jets, and their kin.

Each object holds its host graph by reference plus vertex-index sets, so
every axiom is checkable against the original adjacency. Verifiers report —
they list violated axioms rather than throwing on falsity. Extraction
procedures (refinement, oddity selection, jets, bloodlines, recirculators)
are deterministic: ties always break toward the lowest vertex index.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .budget import Budget, ensure_budget
from .errors import BudgetExceededError, InputError, RefinementError
from .graph import Graph, bfs_levels, bits, closed_mask, mask_of, reach, set_of
from .holes import Hole, canonical_hole, enumerate_holes, sequence_defect, validate_hole
from .invariants import _chromatic_exceeds, _clique


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Multicover:
    """A family (N_x : x in X) multicovering a target set C."""

    host: Graph
    X: frozenset[int]
    families: dict[int, frozenset[int]]
    C: frozenset[int]

    @property
    def length(self) -> int:
        return len(self.X)

    def family_union(self) -> frozenset[int]:
        return frozenset().union(*self.families.values())

    def ground_set(self) -> frozenset[int]:
        return self.X | self.family_union() | self.C


@dataclass(frozen=True)
class CrestData:
    """Crest of a stably k-crested multicover.

    apexes lists a_1..a_k; subdivisions maps (i, x) to the vertex a_{ix}
    sitting between apex a_i and multicover apex x.
    """

    apexes: tuple[int, ...]
    subdivisions: dict[tuple[int, int], int]

    @property
    def k(self) -> int:
        return len(self.apexes)


@dataclass(frozen=True)
class Oddity:
    """An induced path of length 3 or 5 between two multicover apexes."""

    path: tuple[int, ...]
    multicover: Multicover

    @property
    def length(self) -> int:
        return len(self.path) - 1


@dataclass(frozen=True)
class Grading:
    """An ordered partition (W_1..W_n) of a ground set."""

    host: Graph
    parts: tuple[frozenset[int], ...]

    def ground_set(self) -> frozenset[int]:
        return frozenset().union(*self.parts)

    def part_of(self, v: int) -> int | None:
        for i, w in enumerate(self.parts):
            if v in w:
                return i
        return None


@dataclass(frozen=True)
class Shower:
    """Layers L_0..L_k with a drain s in the last layer."""

    host: Graph
    layers: tuple[frozenset[int], ...]
    drain: int

    @property
    def k(self) -> int:
        return len(self.layers) - 1

    @property
    def head(self) -> int:
        (h,) = self.layers[0]
        return h

    def vertex_set(self) -> frozenset[int]:
        return frozenset().union(*self.layers)

    def floor(self) -> frozenset[int]:
        """Vertices of the last layer with a neighbor in the layer above."""
        if self.k == 0:
            return frozenset()
        g = self.host
        above = mask_of(self.layers[-2])
        return frozenset(
            v for v in self.layers[-1] if g.adjacency_mask(v) & above
        )


@dataclass(frozen=True)
class RefinementBudget:
    """Caller-supplied chromatic thresholds, one per refinement round."""

    thresholds: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.thresholds):
            raise InputError("refinement thresholds must be nonnegative")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a structure verifier: every violated axiom, in order."""

    valid: bool
    failures: tuple[str, ...] = ()
    cover_clique_number: int | None = None


@dataclass(frozen=True)
class RefinementRound:
    """One round of multicover refinement."""

    apex: int
    A: frozenset[int]
    C: frozenset[int]
    D: frozenset[int]
    covered_side: str  # "C" or "D": the side A covers


@dataclass(frozen=True)
class JetSummary:
    """Residue summary of a shower's d-jetset."""

    modulus: int
    lengths: frozenset[int]
    residues: frozenset[int]
    completeness: int  # largest t with the jetset (t, ell)-complete; 0 if none


# ---------------------------------------------------------------------------
# multicovers


def _is_cover_of(g: Graph, x: int, n_x: frozenset[int], c: frozenset[int]) -> str | None:
    """None if (x, N_x) is a cover of C; otherwise the violated clause."""
    adj_x = g.adjacency_mask(x)
    if x in n_x or x in c:
        return f"apex {x} lies in its own family or the target"
    if any(not (adj_x >> v) & 1 for v in n_x):
        return f"family of apex {x} contains a non-neighbor of it"
    if n_x & c:
        return f"family of apex {x} intersects the target"
    if adj_x & mask_of(c):
        return f"apex {x} has a neighbor in the target"
    if not all(g.adjacency_mask(v) & mask_of(n_x) for v in c):
        return f"family of apex {x} does not cover the target"
    return None


def verify_multicover(
    mc: Multicover,
    stable: bool = False,
    crest: CrestData | None = None,
    budget: Budget | None = None,
) -> VerificationReport:
    """Check every multicover axiom; optionally stability and a crest.

    Reports the cover clique number (clique number of the subgraph induced
    on the union of the families) whenever every vertex is in range. When
    the budget runs out during that search, raises BudgetExceededError
    whose partial is the report without it.
    """
    g = mc.host
    failures: list[str] = []
    try:
        for v in mc.ground_set():
            g.check_vertex(v)
        if set(mc.families) != set(mc.X):
            raise InputError("families are not indexed exactly by X")
    except InputError as exc:
        return VerificationReport(False, (str(exc),))
    if not g.is_stable(mc.X):
        failures.append("X is not stable")
    for x in sorted(mc.X):
        violation = _is_cover_of(g, x, mc.families[x], mc.C)
        if violation:
            failures.append(violation)
    seen: dict[int, int] = {}
    for x in sorted(mc.X):
        for v in mc.families[x] | {x}:
            if v in seen:
                failures.append(
                    f"vertex {v} shared by the closed families of apexes "
                    f"{seen[v]} and {x}"
                )
            seen[v] = x
    for x in sorted(mc.X):
        n_mask = mask_of(mc.families[x])
        for y in sorted(mc.X):
            if y != x and g.adjacency_mask(y) & n_mask:
                failures.append(
                    f"apex {y} has a neighbor in the family of apex {x}"
                )
    if stable:
        for x in sorted(mc.X):
            if not g.is_stable(mc.families[x]):
                failures.append(f"family of apex {x} is not stable")
    if crest is not None:
        failures.extend(_crest_failures(mc, crest))
    try:
        ccn, _ = _clique(
            g.adjacency_masks(), mask_of(mc.family_union()), ensure_budget(budget)
        )
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            str(exc),
            lower=exc.lower,
            upper=exc.upper,
            partial=VerificationReport(not failures, tuple(failures)),
        ) from exc
    return VerificationReport(not failures, tuple(failures), ccn)


def _crest_failures(mc: Multicover, crest: CrestData) -> list[str]:
    """The five crest axioms, as failure strings."""
    g = mc.host
    out: list[str] = []
    ground = mc.ground_set()
    xs = sorted(mc.X)
    k = crest.k
    crest_vertices = list(crest.apexes) + [
        crest.subdivisions[(i, x)] for i in range(k) for x in xs
        if (i, x) in crest.subdivisions
    ]
    if set(crest.subdivisions) != {(i, x) for i in range(k) for x in xs}:
        return ["crest subdivision vertices are not indexed by (apex, x) pairs"]
    if len(set(crest_vertices)) != len(crest_vertices):
        out.append("crest vertices are not all distinct")
    if any(v in ground for v in crest_vertices):
        out.append("a crest vertex lies in the multicover's ground set")
    ground_mask = mask_of(ground)
    sub_by_pair = crest.subdivisions
    for i in range(k):
        a_i = crest.apexes[i]
        if g.adjacency_mask(a_i) & ground_mask:
            out.append(f"crest apex a_{i + 1} has a neighbor in the ground set")
    for i in range(k):
        for x in xs:
            a_ix = sub_by_pair[(i, x)]
            if not g.has_edge(a_ix, x):
                out.append(f"subdivision vertex for (a_{i + 1}, {x}) misses {x}")
            extra = g.adjacency_mask(a_ix) & ground_mask & ~(1 << x)
            if extra:
                out.append(
                    f"subdivision vertex for (a_{i + 1}, {x}) touches the "
                    "ground set beyond its own apex"
                )
            if not g.has_edge(a_ix, crest.apexes[i]):
                out.append(
                    f"subdivision vertex for (a_{i + 1}, {x}) misses a_{i + 1}"
                )
            for j in range(k):
                if j != i and g.has_edge(a_ix, crest.apexes[j]):
                    out.append(
                        f"subdivision vertex for (a_{i + 1}, {x}) touches a_{j + 1}"
                    )
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(crest.apexes[i], crest.apexes[j]):
                out.append(f"crest apexes a_{i + 1}, a_{j + 1} are adjacent")
    for i in range(k):
        for j in range(k):
            for x in xs:
                for y in xs:
                    if x != y and g.has_edge(
                        sub_by_pair[(i, x)], sub_by_pair[(j, y)]
                    ):
                        out.append(
                            "subdivision vertices over distinct apexes "
                            f"({x}, {y}) are adjacent"
                        )
    return out


def verify_oddity(o: Oddity) -> VerificationReport:
    """Check the four oddity axioms against the multicover's host graph."""
    mc = o.multicover
    g = mc.host
    p = o.path
    failures: list[str] = []
    try:
        for v in p:
            g.check_vertex(v)
    except InputError as exc:
        return VerificationReport(False, (str(exc),))
    if len(set(p)) != len(p):
        failures.append("path vertices are not distinct")
    if sequence_defect(g, p, cyclic=False) is not None:
        failures.append("path is not induced")
    if o.length not in (3, 5):
        failures.append(f"path length {o.length} is not 3 or 5")
    if not (p[0] in mc.X and p[-1] in mc.X):
        failures.append("path ends are not both in X")
    p_mask = mask_of(p)
    for x in sorted(mc.X - {p[0], p[-1]}):
        if x in p or g.adjacency_mask(x) & p_mask:
            failures.append(f"non-end apex {x} lies in or touches the path")
    allowed = mc.ground_set()
    for v in p:
        if v not in allowed:
            failures.append(f"path vertex {v} is outside X, the families, and C")
    return VerificationReport(not failures, tuple(failures))


def refine_multicover(
    mc: Multicover,
    budget: RefinementBudget,
    node_budget: Budget | None = None,
) -> list[RefinementRound]:
    """Greedy chromatic refinement of a multicover, one round per apex.

    The split starts as (C_0, D_0) = (C, C). Round i picks an
    inclusion-minimal A_i within its apex's family whose C-neighborhood
    f(A_i) pushes one side of the previous split above the round's
    threshold, preferring the C side: then C_i = f(A_i) & C_{i-1} and
    D_i = D_{i-1} - f(A_i), and the other way round for the D side. The D
    side is not tried while it equals C, so round 1 gives C_1 = f(A_1) and
    D_1 = C - f(A_1). Each round's postcondition — every A_h covers one of
    (C_i, D_i) and is anticomplete to the other — is verified by direct
    scan before the round is accepted.
    """
    if len(budget.thresholds) != mc.length:
        raise InputError("need exactly one threshold per apex")
    node_budget = ensure_budget(node_budget)
    g = mc.host
    xs = sorted(mc.X)

    def f(a: Iterable[int]) -> frozenset[int]:
        am = mask_of(a)
        return frozenset(v for v in mc.C if g.adjacency_mask(v) & am)

    def minimal(n_x: frozenset[int], holds) -> frozenset[int]:
        """An inclusion-minimal subset of n_x that holds, given that n_x does."""
        a = set(n_x)
        for v in sorted(n_x):
            trial = frozenset(a - {v})
            if holds(trial):
                a.discard(v)
        return frozenset(a)

    rounds: list[RefinementRound] = []
    cur_c = cur_d = mc.C
    for idx, (x, c_i) in enumerate(zip(xs, budget.thresholds), start=1):
        n_x = mc.families[x]

        def c_side(s: frozenset[int]) -> bool:
            return _chromatic_exceeds(g, mask_of(f(s) & cur_c), c_i, node_budget)

        def d_side(s: frozenset[int]) -> bool:
            return _chromatic_exceeds(g, mask_of(f(s) & cur_d), c_i, node_budget)

        if c_side(n_x):
            a = minimal(n_x, c_side)
            new_c = f(a) & cur_c
            new_d = cur_d - f(a)
            side = "C"
        elif cur_d != cur_c and d_side(n_x):
            a = minimal(n_x, d_side)
            new_d = f(a) & cur_d
            new_c = cur_c - f(a)
            side = "D"
        else:
            raise RefinementError(idx, f"threshold unreachable at round {idx}")
        rounds.append(RefinementRound(x, a, new_c, new_d, side))
        # postcondition: every A_h so far covers one side, anticomplete to
        # the other
        for r in rounds:
            covered = new_c if g.covers(r.A, new_c) else None
            if covered is None and g.covers(r.A, new_d):
                covered = new_d
            other = new_d if covered is new_c else new_c
            if covered is None or not g.is_anticomplete(r.A, other):
                raise RefinementError(
                    idx,
                    f"round {idx} postcondition failed for apex {r.apex}",
                )
        cur_c, cur_d = new_c, new_d
    return rounds


def find_oddity(
    mc: Multicover,
    B1: frozenset[int],
    B2: frozenset[int],
    D: frozenset[int],
    Z: frozenset[int],
) -> Oddity | None:
    """Extract an oddity by the greedy selection over a clique Z inside D.

    B1 and B2 must each cover D and lie inside distinct families; Z must be
    a clique within D. Picks y_1 in B1 | B2 with the most neighbors in Z,
    then a Z-vertex z_2 missed by y_1, a B2-vertex y_2 catching z_2, and a
    Z-vertex z_1 seen by y_1 but not y_2; emits the length-3 path when
    y_1 y_2 is an edge, else the length-5 path through z_1, z_2. Returns
    None when the selection runs out of candidates.
    """
    g = mc.host
    if not g.is_clique(Z) or not Z <= D:
        raise InputError("Z must be a clique inside D")
    for b in (B1, B2):
        if not g.covers(b, D):
            raise InputError("B1 and B2 must each cover D")
    apex1 = _apex_of(mc, B1)
    apex2 = _apex_of(mc, B2)
    if apex1 is None or apex2 is None or apex1 == apex2:
        raise InputError("B1 and B2 must lie inside distinct families")
    z_mask = mask_of(Z)

    def z_degree(v: int) -> int:
        return (g.adjacency_mask(v) & z_mask).bit_count()

    y1 = max(sorted(B1 | B2), key=z_degree)
    if y1 in B2:
        B1, B2 = B2, B1
        apex1, apex2 = apex2, apex1
    z2 = next((z for z in sorted(Z) if not g.has_edge(y1, z)), None)
    if z2 is None:
        return None
    y2 = next((y for y in sorted(B2) if g.has_edge(y, z2)), None)
    if y2 is None:
        return None
    z1 = next(
        (
            z
            for z in sorted(Z)
            if g.has_edge(y1, z) and not g.has_edge(y2, z)
        ),
        None,
    )
    if z1 is None:
        return None
    if g.has_edge(y1, y2):
        path = (apex1, y1, y2, apex2)
    else:
        path = (apex1, y1, z1, z2, y2, apex2)
    oddity = Oddity(path=path, multicover=mc)
    report = verify_oddity(oddity)
    if not report.valid:
        return None
    return oddity


def _apex_of(mc: Multicover, b: frozenset[int]) -> int | None:
    for x in sorted(mc.X):
        if b <= mc.families[x]:
            return x
    return None


# ---------------------------------------------------------------------------
# gradings and square edges


def earliest_parent(g: Graph, b_enum: Sequence[int], v: int) -> int:
    """The earliest vertex of the enumeration adjacent to v."""
    g.check_vertex(v)
    for b in b_enum:
        if g.has_edge(b, v):
            return b
    raise InputError(f"vertex {v} has no neighbor in the enumeration")


def _parent_index(g: Graph, b_enum: Sequence[int], c: frozenset[int]) -> dict[int, int]:
    """Each vertex of c -> the position in b_enum of its earliest parent.

    The enumeration must have no repeated vertex and cover c.
    """
    if len(set(b_enum)) != len(b_enum):
        raise InputError("enumeration has repeated vertices")
    if not g.covers(frozenset(b_enum), c):
        raise InputError("the enumeration does not cover the target set")
    position = {b: i for i, b in enumerate(b_enum)}
    return {v: position[earliest_parent(g, b_enum, v)] for v in c}


def grading_from_cover(
    g: Graph, b_enum: Sequence[int], C: Iterable[int]
) -> Grading:
    """Grade C by earliest parent: W_i holds the vertices adopted by b_i."""
    parts: list[set[int]] = [set() for _ in b_enum]
    for v, i in _parent_index(g, b_enum, g.check_set(C)).items():
        parts[i].add(v)
    return Grading(host=g, parts=tuple(map(frozenset, parts)))


def square_edges(
    g: Graph, b_enum: Sequence[int], C: Iterable[int]
) -> list[tuple[int, int]]:
    """Edges of G[C] whose endpoints' earliest parents miss the other end."""
    c = g.check_set(C)
    parent = {v: b_enum[i] for v, i in _parent_index(g, b_enum, c).items()}
    c_mask = mask_of(c)
    out = []
    for u in sorted(c):
        for v in bits(g.adjacency_mask(u) & c_mask & ~((2 << u) - 1)):
            if not g.has_edge(parent[u], v) and not g.has_edge(parent[v], u):
                out.append((u, v))
    return out


def is_compatible(b_enum: Sequence[int], grading: Grading) -> bool:
    """Does earlier-in-grading force a strictly earlier earliest parent?

    It does when each nonempty part's lowest parent position exceeds the
    highest of every earlier part.
    """
    index = _parent_index(grading.host, b_enum, grading.ground_set())
    highest = -1
    for part in grading.parts:
        if part:
            positions = [index[v] for v in part]
            if min(positions) <= highest:
                return False
            highest = max(positions)
    return True


# ---------------------------------------------------------------------------
# showers


def verify_shower(s: Shower) -> tuple[VerificationReport, frozenset[int]]:
    """Check the four shower axioms; also return the floor."""
    g = s.host
    failures: list[str] = []
    try:
        for layer in s.layers:
            g.check_set(layer)
        g.check_vertex(s.drain)
    except InputError as exc:
        return VerificationReport(False, (str(exc),)), frozenset()
    seen: set[int] = set()
    for layer in s.layers:
        if layer & seen:
            failures.append("layers are not pairwise disjoint")
            break
        seen |= layer
    if len(s.layers[0]) != 1:
        failures.append("first layer does not have exactly one vertex")
    if s.drain not in s.layers[-1]:
        failures.append("drain is not in the last layer")
    k = s.k
    for i in range(1, k):
        if not g.covers(s.layers[i - 1], s.layers[i]):
            failures.append(f"layer {i - 1} does not cover layer {i}")
    adj = g.adjacency_masks()
    masks = [mask_of(layer) for layer in s.layers]
    for i, layer in enumerate(s.layers):
        near = 0  # open neighbourhood: a vertex shared by two layers is no edge
        for v in layer:
            near |= adj[v]
        for j in range(i + 2, k + 1):
            if near & masks[j]:
                failures.append(f"edge between layer {i} and layer {j}")
    last = masks[-1]
    if reach(adj, last & -last, last) != last:
        failures.append("last layer does not induce a connected subgraph")
    return VerificationReport(not failures, tuple(failures)), s.floor()


def shower_from_bfs(
    g: Graph, root: int, k: int, drain: int
) -> Shower | None:
    """Build a shower from BFS layers of root, drained at the given vertex.

    L_i is the distance-i layer for i < k; the last layer is the distance-k
    layer restricted to the drain's component (connectivity is required but
    the last layer need not be covered). Returns None when the construction
    cannot satisfy the axioms; a negative depth is an InputError.
    """
    g.check_vertex(root)
    g.check_vertex(drain)
    if k < 0:
        raise InputError("shower depth must be nonnegative")
    adj = g.adjacency_masks()
    layers = list(islice(bfs_levels(adj, 1 << root), k + 1))
    if len(layers) <= k or not (layers[k] >> drain) & 1:
        return None
    layers[k] = reach(adj, 1 << drain, layers[k])
    shower = Shower(host=g, layers=tuple(map(set_of, layers)), drain=drain)
    report, _ = verify_shower(shower)
    return shower if report.valid else None


def enumerate_jets(
    s: Shower,
    max_len: int,
    ell: int | None = None,
    d: int | None = None,
    budget: Budget | None = None,
) -> tuple[list[tuple[int, ...]], JetSummary | None]:
    """All induced head-drain paths in the shower's vertex set, up to max_len.

    Jets of two or more edges come from the hole kernel: each is a hole
    through a new vertex joined to head and drain only, so the budget is
    charged and its error raised as in enumerate_holes.

    With ell set, also summarizes the (d-peripheral, when d is given) jet
    lengths: residues mod ell and the largest t for which the jetset is
    (t, ell)-complete, i.e. contains t consecutive lengths mod ell.
    """
    _check_jet_arguments(max_len, ell, d)
    report, floor = verify_shower(s)
    if not report.valid:
        raise InputError(f"invalid shower: {report.failures[0]}")
    return _verified_jets(s, floor, max_len, ell, d, ensure_budget(budget))


def _check_jet_arguments(max_len: int, ell: int | None, d: int | None) -> None:
    """The InputError enumerate_jets raises for its arguments, if any."""
    if max_len < 0:
        raise InputError("jet length must be nonnegative")
    if d is not None and d < 0:
        raise InputError("d must be nonnegative")
    if ell is not None and ell < 2:
        raise InputError("jetset modulus must be at least 2")


def _verified_jets(
    s: Shower,
    floor: frozenset[int],
    max_len: int,
    ell: int | None,
    d: int | None,
    budget: Budget,
) -> tuple[list[tuple[int, ...]], JetSummary | None]:
    """enumerate_jets on checked arguments and a valid shower with this floor."""
    g = s.host
    allowed = mask_of(s.vertex_set())
    jets = sorted(_jets(g, s.head, s.drain, allowed, max_len, budget))
    summary = None
    if ell is not None:
        adj, floor_mask = g.adjacency_masks(), mask_of(floor)
        lengths = set()
        for j in jets:
            # any floor subset anticomplete to the jet lies in floor - N[jet],
            # and chi is monotone under induced subgraphs, so testing that
            # maximal set is exact
            if d is None or _chromatic_exceeds(
                g, floor_mask & ~closed_mask(adj, j), d, budget
            ):
                lengths.add(len(j) - 1)
        residues = frozenset(l % ell for l in lengths)
        summary = JetSummary(
            modulus=ell,
            lengths=frozenset(lengths),
            residues=residues,
            completeness=_longest_cyclic_run(residues, ell),
        )
    return jets, summary


def _longest_cyclic_run(residues: frozenset[int], ell: int) -> int:
    """Longest run of consecutive residues mod ell present; capped at ell."""
    if not residues:
        return 0
    if len(residues) == ell:
        return ell
    best = 0
    for start in residues:
        if (start - 1) % ell in residues:
            continue
        run = 0
        while (start + run) % ell in residues:
            run += 1
        best = max(best, run)
    return best


def _jets(
    g: Graph, head: int, drain: int, allowed: int, max_len: int, budget: Budget
) -> Iterator[tuple[int, ...]]:
    """Induced head-drain paths inside allowed with at most max_len edges."""
    if head == drain or max_len < 1:
        return
    if g.has_edge(head, drain):  # the edge is a chord of any longer path
        yield head, drain
        return
    edges = [(0, head + 1), (0, drain + 1)]  # vertex 0 is the new one; g's shift up
    edges += [(u + 1, v + 1) for u, v in g.edges() if (allowed >> u) & (allowed >> v) & 1]
    with closing(enumerate_holes(Graph(g.n + 1, edges), 4, max_len + 2, budget)) as holes:
        for hole in holes:
            if hole[0]:  # the holes through anchor 0 come first
                return
            path = [v - 1 for v in hole[1:]]
            yield tuple(path if path[0] == head else reversed(path))


def _least_shortest_path(
    g: Graph, source: int, target: int, allowed_mask: int, budget: Budget
) -> tuple[int, ...] | None:
    """Lexicographically least shortest source-target path inside allowed_mask.

    None when there is none. A bitset BFS from the target, charging each vertex
    it reaches, then a walk from the source to its lowest-index neighbor one
    level nearer. A shortest path has no chord, so the path is induced.
    """
    adj = g.adjacency_masks()
    levels = []
    for level in bfs_levels(adj, 1 << target, allowed_mask):
        if levels:
            budget.tick(level.bit_count())
        levels.append(level)
        if (level >> source) & 1:
            break
    else:
        return None
    path = [source]
    for level in reversed(levels[:-1]):
        step = adj[path[-1]] & level
        path.append((step & -step).bit_length() - 1)
    return tuple(path)


def bloodline(
    g: Graph, last_layer: frozenset[int], drain: int, v: int
) -> tuple[int, ...]:
    """An induced path from v to the drain inside the last layer.

    M_i is the set of last-layer vertices at G[L_k]-distance i from the
    drain; the path steps from v through strictly earlier M-layers using
    the lowest-index predecessor each time, so it has length exactly the
    M-index of v and is automatically induced.
    """
    if v not in last_layer or drain not in last_layer:
        raise InputError("both the vertex and the drain must be in the layer")
    allowed = mask_of(g.check_set(last_layer))
    path = _least_shortest_path(g, v, drain, allowed, Budget(None))
    if path is None:
        raise InputError(f"vertex {v} is not in any M-layer of the drain")
    return path


def find_recirculator(
    g: Graph, s: Shower, max_len: int, budget: Budget | None = None
) -> tuple[int, ...] | None:
    """Shortest induced drain-to-head path outside the shower.

    Internal vertices lie outside the shower's vertex set and have no
    neighbors in it except possibly the drain and head. Returns the
    lexicographically least shortest such path, or None when there is none
    with at most max_len edges (always None when head and drain coincide).
    The budget is charged for every vertex the search reaches.
    """
    budget = ensure_budget(budget)
    head, drain = s.head, s.drain
    if head == drain:
        return None
    v_set = s.vertex_set()
    ends_mask = (1 << head) | (1 << drain)
    interior_forbidden = mask_of(v_set) & ~ends_mask
    allowed = ends_mask | mask_of(
        v
        for v in g.vertices()
        if v not in v_set and not g.adjacency_mask(v) & interior_forbidden
    )
    path = _least_shortest_path(g, drain, head, allowed, budget)
    if path is None or len(path) - 1 > max_len:
        return None
    return path


def close_hole(jet: Sequence[int], recirc: Sequence[int], g: Graph) -> Hole:
    """Glue a jet and a recirculator sharing exactly their endpoints.

    The union must be a chordless cycle. validate_hole raises on the first
    defect in canonical order: ChordError for a chord, InputError otherwise.
    """
    if len(jet) < 2 or len(recirc) < 2:
        raise InputError("jet and recirculator must each have an edge")
    ends = {jet[0], jet[-1]}
    if {recirc[0], recirc[-1]} != ends:
        raise InputError("jet and recirculator must share their endpoints")
    if set(jet[1:-1]) & set(recirc[1:-1]):
        raise InputError("jet and recirculator share an internal vertex")
    r = list(recirc)
    if r[0] != jet[-1]:
        r.reverse()
    hole = canonical_hole(list(jet) + r[1:-1])
    validate_hole(g, hole)
    return hole
