"""Tree-pattern embedding: monotone circuit construction and randomized detection.

The decision "does the weighted directed tree T embed into the host digraph,
covering all terminals and respecting per-vertex plough capacities" is encoded
as a polynomial Q(X, z): Q has a monomial z^|S| * (product of eta distinct
host variables) exactly when an embedding exists.  The polynomial is built
as a shared monotone circuit (one gate family per tree-vertex/host-vertex
pair) and tested with algebraic fingerprints (Koutis and Williams,
"Algebraic fingerprints for faster algorithms"; Bjorklund, Husfeldt, Kaski
and Koivisto, "Narrow sieves for parameterized paths and packings").

Gates.  Three kinds: the leaf ("x", w, u, e) is z^e * x_{w,u} for host
vertex w and tree vertex u, e = 1 exactly when w is a terminal; ("add", ids)
is a sum, the empty one being 0; ("mul", a, b) is a product.

Fingerprints.  The circuit's x-gates are the pairs (w, u) of
``placements``: host vertex w pays tree vertex u's plough demand, has at
least u's out- and in-degree, and survives arc consistency.  Arc
consistency drops no placement of a map that respects arcs and capacities,
since such a map supports each of its placements across every tree arc.
The degree test drops only placements of maps that are not injective: a
host vertex with fewer out- (in-) neighbours than u has tree out- (in-)
arcs can hold u only if two of u's neighbours share a host vertex.  The
circuit's z^t coefficient is

    Q_t = sum over phi of prod_u x_{phi(u),u},

phi running over the maps of the tree into the host that respect arcs and
capacities, place every vertex within ``placements`` (every injective one
does, and under a pin every injective one that respects it) and hit t
terminals (with multiplicity), each exactly once.  A
trial draws a in GF(2^64)^{n x k}, k = eta, and one r per x-gate, uniformly
and independently, and substitutes

    x_{w,u} -> r_{w,u} * (a_{w,1} y_1 + ... + a_{w,k} y_k).

The coefficient of y_1 ... y_k in the image of phi's monomial is
prod_u r_{phi(u),u} * det(A_phi), where A_phi has rows a_{phi(u)} (the
permanent is the determinant in characteristic 2).  Every monomial has
degree exactly k in y, so by inclusion-exclusion, whose signs vanish in
characteristic 2, that coefficient of the whole image is the XOR over
T of [k] of Q_t evaluated at y = 1_T.  The trial's value is therefore

    F(r, a) = sum over phi of prod_u r_{phi(u),u} * det(A_phi).

No false positives: when phi is not injective, two rows of A_phi coincide
and det(A_phi) = 0 as a polynomial, so F = 0 unless an embedding exists.
For the same reason the degree test leaves F unchanged: the maps it drops
are not injective, and their terms vanish.

Proven miss bound: let phi be an injective embedding (under a pin, one
that respects it).  Its r-monomial determines phi, so no other term of F
shares it, and its coefficient det(A_phi) is a nonzero polynomial, since
the rows are distinct sets of indeterminates.
So F is a nonzero polynomial of total degree 2k in (r, a), and by
Schwartz-Zippel one trial gives F = 0 with probability at most 2k/2^64.
A detection is one trial.

The survivor search.  ``embed`` decides the same question exactly, by a
depth-first search over the placements (Ullmann, JACM 1976, with the domain
filtering of McCreesh, Prosser and Trimble's Glasgow Subgraph Solver, ICGT
2020).  It extends partial maps of tree vertices 0, ..., i in layout order:
vertex i+1 goes on a host vertex of its domain, unused so far and joined to
its parent's host vertex by a host arc in the direction of their tree arc.
A partial map that leaves more terminals uncovered than there are vertices
still to place is dropped.  A map it completes is injective, keeps every
tree arc, pays every demand and respects any pin (the domains do), and
covers every terminal, since the last vertex leaves none uncovered: an
embedding, so the answer YES is certain.  Conversely, let phi be an
embedding (under a pin, one that respects it).  Each phi(u) lies in u's
domain, because ``placements`` keeps every embedding's placements, so
every restriction of phi to vertices 0, ..., i is a partial map the search
forms, unless it returns earlier.  None is dropped: phi covers the
terminals its restriction leaves uncovered with distinct vertices still to
place.  So a search that exhausts its branches proves that no embedding
exists, the NO is certain, and the detection, which has no false
positives, would answer NO too.  A node budget bounds the search, which
can take exponential time: once spent, ``embed`` answers None and leaves
the candidate to a detection.

The evaluation runs over GF(2^64)[z]/(z^(t+1)), vectorised over lanes, one
per subset T, in chunks of L = min(SUBSET_CHUNK, 2^k) lanes.  A schedule,
compiled once per trial from the gate DAG, keeps of each gate only the
z-coefficients that reach the output's z^t, one row of L words each, and
batches the gates by mul depth: the products of one level are one kernel
call and the sums above them one gather.  A row is reused once the batch of
its gate's last reader is done.  Memory is the peak number of live rows
(one per x-gate, and one per kept coefficient of each gate still to be
read) times L words, plus one call's temporaries: a call gathers at most
SUBSET_CHUNK * (t+1)^2 words per operand, one full product of two
(t+1)-coefficient values over SUBSET_CHUNK lanes, and the kernel holds a
few arrays of that size.
"""

from __future__ import annotations

import itertools
from typing import Literal, Optional, Union

import numpy as np

from .algebra import _clmul_reduce_arrays
from .digraph import Instance, _Value, bits
from .trees import MAX_ORDER, TreeCandidate

# Gate-count ceiling: one x-gate, and an add and a mul per child, per pair,
# plus the output sum: at most n*(3*eta - 2) + 1 <= 3*eta*n gates, below
# CIRCUIT_SIZE_C * n^3 for every n >= 1, eta <= n.
CIRCUIT_SIZE_C = 10


class Circuit(_Value):
    """Monotone arithmetic circuit in topological gate order.

    Gate encodings: ("x", host_vertex, tree_vertex, z_exp), the leaf
    z^z_exp * x_{host_vertex,tree_vertex}; ("add", ids), a sum, 0 when ids is
    empty; ("mul", a, b), a product.
    """

    _fields = __slots__ = ("gates", "output", "host_n", "tree_order")
    __hash__ = None  # mutable

    def __init__(self, gates: list[tuple], output: int, host_n: int, tree_order: int):
        self.gates = gates
        self.output = output
        self.host_n = host_n
        self.tree_order = tree_order

    def x_gate_ids(self) -> list[int]:
        return [i for i, g in enumerate(self.gates) if g[0] == "x"]

    def validate(self) -> None:
        """ValueError unless the circuit is monotone and topological: x-gates
        on a host vertex and a tree vertex in range with a nonnegative z
        power, operands earlier in gate order, the output a gate."""
        for i, g in enumerate(self.gates):
            kind = g[0]
            if kind == "x":
                ok = 0 <= g[1] < self.host_n and 0 <= g[2] < self.tree_order and g[3] >= 0
            elif kind == "add":
                ok = all(0 <= c < i for c in g[1])
            else:
                ok = kind == "mul" and 0 <= g[1] < i and 0 <= g[2] < i
            if not ok:
                raise ValueError(f"malformed gate {i}: {g!r}")
        if not 0 <= self.output < len(self.gates):
            raise ValueError(f"output {self.output} is not a gate")


def placements(
    host: Instance, tree: TreeCandidate, pin: Optional[int] = None, onto: Optional[int] = None
) -> list[int]:
    """The host vertices each tree vertex may sit on, one bitmask per tree
    vertex (bit w: host vertex w): the arc-consistency fixpoint of the
    starting domains.  A placement stays while every tree arc at its vertex
    has a placement at the other end joined to it by a host arc of the same
    direction.  Every domain is empty once vertex 0's is, and every
    embedding keeps its placements (module docstring).

    The starting domain of a tree vertex u with demand d, out-degree to and
    in-degree ti is {w : w pays d and has at least to out- and ti
    in-neighbours}, the threshold rows ``pays[d] & outs[to] & ins[ti]`` of
    ``Instance.thresholds``, built once per host.  A count above n - 1 reads
    an empty row: row n, or one of the empty rows the call pads on when the
    tree has more than n + 1 vertices.

    pin, a host bitmask, confines every tree vertex of in-degree at most 1
    to it from the start: the normal form of a restricted decision, whose
    pin is the facility set (``solvers``).  It keeps the placements of every
    embedding that maps those vertices into pin.  onto, a host bitmask,
    confines every tree vertex to it: the onto-F pin of a tree on exactly
    |F| vertices, whose injective embeddings that cover F map onto F
    (``solvers``).  It keeps the placements of every embedding into onto.
    Arc consistency then drops the placements either rule leaves
    unsupported.  None confines nothing.

    On a tree two passes reach the fixpoint (Freuder, JACM 1982).  Arc i
    joins vertex i+1 to its smaller-id parent (the ``TreeCandidate``
    layout).  Pass one, arcs m-1 down to 0, restricts each parent by its
    child, which its subtree has restricted already, so an empty domain
    empties the root's: the pass stops at the first one.  Pass two, arcs 0
    up to m-1, restricts each child by its parent, final by then; a child
    keeps every placement adjacent to one of its parent's, so no parent
    placement loses its support and no domain empties.  Every arc ends
    consistent both ways and each step drops only placements the fixpoint
    drops too.  Both passes are plain loops that OR the host rows of the
    other end's placements, walking its set bits inline.
    """
    n, order, arcs = host.n, tree.order, tree.arcs
    tout = [0] * order
    tin = [0] * order
    for a, b in arcs:
        tout[a] += 1
        tin[b] += 1
    out_mask, in_mask = host.out_mask, host.in_mask
    pays, outs, ins = host.thresholds
    if order > n + 1:  # a count can exceed n: pad every row with empty ones
        pad = (0,) * (order - 1 - n)
        pays, outs, ins = pays + pad, outs + pad, ins + pad
    high = (1 << n) - 1 if onto is None else onto
    low = high if pin is None else high & pin
    dom = [
        pays[d] & outs[to] & ins[ti] & (low if ti <= 1 else high)
        for d, to, ti in zip(tree.demand, tout, tin)
    ]
    # each pass ORs the rows of the other end's placements across an arc:
    # out_mask rows walk it forwards, in_mask rows backwards
    for i in range(order - 2, -1, -1):  # pass one: the parent by vertex i+1
        a, b = arcs[i]
        if a == i + 1:
            p, step = b, out_mask
        else:
            p, step = a, in_mask
        left, acc = dom[i + 1], 0
        while left:
            bit = left & -left
            acc |= step[bit.bit_length() - 1]
            left ^= bit
        dom[p] &= acc
        if not dom[p]:
            return [0] * order
    for i in range(order - 1):  # pass two: vertex i+1 by its parent
        a, b = arcs[i]
        if a == i + 1:
            p, step = b, in_mask
        else:
            p, step = a, out_mask
        left, acc = dom[p], 0
        while left:
            bit = left & -left
            acc |= step[bit.bit_length() - 1]
            left ^= bit
        dom[i + 1] &= acc
    return dom


#: placements ``embed`` may try before it gives up; read at each call
SEARCH_BUDGET = 10_000


def embed(
    host: Instance,
    tree: TreeCandidate,
    terminals: frozenset[int],
    dom: list[int],
) -> Union[tuple[int, ...], Literal[False], None]:
    """Depth-first search for an embedding of tree into host within dom, the
    ``placements`` of tree under whatever pin and onto the embedding must
    respect (module docstring, the survivor search).  Returns the embedding,
    tree vertex u on host vertex ``image[u]``; False when none exists; or
    None once it has tried ``SEARCH_BUDGET`` placements without an answer.

    Vertices are placed in layout order, so a vertex's parent is placed
    before it.  Vertex v draws its host vertices from its domain, minus the
    used ones, within the out-row (in-row) of its parent's host vertex when
    the arc points parent -> v (v -> parent).  A placement that leaves more
    terminals uncovered than vertices to place is dropped.
    """
    if not all(0 <= t < host.n for t in terminals):
        raise ValueError("terminals outside host vertex range")
    budget = SEARCH_BUDGET
    order, arcs = tree.order, tree.arcs
    term = sum(1 << w for w in terminals)
    image = [0] * order  # the host vertex of each placed tree vertex, as a bit
    left = [0] * order  # the host vertices each placed vertex has yet to try
    left[0] = dom[0]
    used, missing, tried, v = 0, term, 0, 0
    while v >= 0:
        if not left[v]:  # v's choices are spent: back up and free v-1's vertex
            v -= 1
            if v >= 0:
                used ^= image[v]
                missing |= image[v] & term
            continue
        bit = left[v] & -left[v]
        left[v] ^= bit
        if tried == budget:
            return None
        tried += 1
        if (missing & ~bit).bit_count() >= order - v:
            continue
        image[v] = bit
        used |= bit
        missing &= ~bit
        v += 1
        if v == order:
            return tuple(b.bit_length() - 1 for b in image)
        a, b = arcs[v - 1]  # v's arc, to its parent a + b - v
        rows = host.in_mask if a == v else host.out_mask
        left[v] = dom[v] & ~used & rows[image[a + b - v].bit_length() - 1]
    return False


def build_circuit(
    host: Instance,
    tree: TreeCandidate,
    terminals: frozenset[int],
    pin: Optional[int] = None,
    onto: Optional[int] = None,
) -> Circuit:
    """Shared-DAG circuit for Q(X, z): tree rooted at vertex 0, z on the terminals.

    The pairs (u, w) with gates are the ``placements`` under pin and onto,
    made bottom-up (children have larger ids), so every gate lies on a path
    to the output.
    """
    if not all(0 <= t < host.n for t in terminals):
        raise ValueError("terminals outside host vertex range")
    n, eta = host.n, tree.order
    dom = placements(host, tree, pin, onto)
    # (child, the host step from the parent's placement to the child's)
    children: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(eta)]
    for v, (a, b) in enumerate(tree.arcs, start=1):
        children[a + b - v].append((v, host.in_mask if a == v else host.out_mask))

    gates: list[tuple] = []

    def append(gate: tuple) -> int:
        gates.append(gate)
        return len(gates) - 1

    def add_gate(ids: list[int]) -> int:
        return ids[0] if len(ids) == 1 else append(("add", tuple(ids)))

    qid: dict[tuple[int, int], int] = {}
    for u in reversed(range(eta)):
        for w in bits(dom[u]):
            acc = append(("x", w, u, int(w in terminals)))
            for c, step in children[u]:
                acc = append(("mul", acc, add_gate([qid[c, y] for y in bits(dom[c] & step[w])])))
            qid[u, w] = acc

    output = add_gate([qid[0, w] for w in bits(dom[0])])
    assert len(gates) <= n * (3 * eta - 2) + 1 <= 3 * eta * n <= CIRCUIT_SIZE_C * n**3
    circ = Circuit(gates=gates, output=output, host_n=n, tree_order=eta)
    circ.validate()
    return circ


# ---------------------------------------------------------------------------
# exact symbolic oracle

def expand_symbolic(
    circuit: Circuit, max_vars: int, max_zdeg: int
) -> dict[tuple[tuple[int, ...], int], int]:
    """Full sum-product expansion with exact integer coefficients.

    Keys are (sorted variable multiset, z-degree); terms above the caps are
    discarded.  Guarded to small circuits: the expansion is exponential.
    """
    if circuit.host_n > 6 or circuit.tree_order > 4:
        raise ValueError("symbolic expansion guard: host_n <= 6 and tree_order <= 4")
    vals: list[dict] = []
    for g in circuit.gates:
        kind = g[0]
        if kind == "x":
            vals.append({((g[1],), g[3]): 1} if max_vars >= 1 and g[3] <= max_zdeg else {})
        elif kind == "add":
            acc: dict = {}
            for c in g[1]:
                for key, coef in vals[c].items():
                    acc[key] = acc.get(key, 0) + coef
            vals.append({k: v for k, v in acc.items() if v})
        else:
            acc = {}
            for (va, za), ca in vals[g[1]].items():
                for (vb, zb), cb in vals[g[2]].items():
                    z = za + zb
                    if z > max_zdeg:
                        continue
                    merged = tuple(sorted(va + vb))
                    if len(merged) > max_vars:
                        continue
                    key = (merged, z)
                    acc[key] = acc.get(key, 0) + ca * cb
            vals.append({k: v for k, v in acc.items() if v})
    return vals[circuit.output]


# ---------------------------------------------------------------------------
# randomized evaluation by algebraic fingerprints

#: lanes, one per subset T of [k], evaluated together
SUBSET_CHUNK = 1 << 10


def _sources_per_call(zcap: int, lanes: int) -> int:
    """Sources one step may gather, row pairs for products and rows for sums:
    SUBSET_CHUNK * (zcap+1)^2 words a side, one full product of two
    (zcap+1)-coefficient values over SUBSET_CHUNK lanes."""
    return SUBSET_CHUNK * (zcap + 1) ** 2 // lanes


def _schedule(circuit: Circuit, zcap: int, lanes: int) -> tuple:
    """Compile the evaluation of the output's z^zcap coefficient from the
    gate DAG alone; ValueError when the circuit is malformed.

    Values live in a row store, one row of lanes words per needed
    z-coefficient of a gate.  Returns (x_count, x_gates, rows, steps, out).
    Rows 0, 1, ... hold the x-gates: row i the x_gates[i][0]-th x-gate of
    the circuit (in gate order, of x_count), on host vertex x_gates[i][1].
    A step (a, b, starts, dst) gathers rows b, multiplies them row by row
    with rows a (None for an add step: no product), XORs each run of
    results from one of starts to the next (None: runs of one) and writes
    the sums to rows dst.  out is the row of the output's z^zcap
    coefficient, None when that coefficient is 0; rows is the store's height.

    A gate keeps only the z-coefficients that reach the output's z^zcap:
    going up, the degrees it can hold up to zcap; going down, those a reader
    needs, so a product past z^zcap is never formed.  Gates are batched by
    (mul depth, add nesting): the products of one mul level are one kernel
    call and the sums above them one gather, each split into calls of at
    most ``_sources_per_call`` source rows, and no coefficient needs more
    than zcap+1 of them.  A row is reused once the batch of its gate's last
    reader is done.
    """
    circuit.validate()
    gates = circuit.gates
    # bit d of deg[g]: g's value can have a z^d term, d <= zcap; of need[g]:
    # some reader of g needs that term
    deg: list[int] = []
    for g in gates:
        m = 0
        if g[0] == "x":
            m = 1 << g[3] if g[3] <= zcap else 0
        elif g[0] == "add":
            for c in g[1]:
                m |= deg[c]
        else:
            for p in bits(deg[g[1]]):
                m |= deg[g[2]] << p
        deg.append(m & (2 << zcap) - 1)
    need = [0] * len(gates)
    need[circuit.output] = deg[circuit.output] & 1 << zcap
    for gid in range(circuit.output, -1, -1):
        want, g = need[gid], gates[gid]
        if want and g[0] == "add":
            for c in g[1]:
                need[c] |= want & deg[c]
        elif want and g[0] == "mul":
            a, b = g[1:]
            need[a] |= sum(1 << p for p in bits(deg[a]) if deg[b] << p & want)
            need[b] |= sum(1 << q for q in bits(deg[b]) if deg[a] << q & want)
    live = [gid for gid, want in enumerate(need) if want]

    # batch (mul depth, add nesting): a mul waits for its operands' mul
    # levels, an add for its summands
    batch: dict[int, tuple[int, int]] = {}
    last: dict[int, tuple[int, int]] = {}  # the batch of each gate's last reader
    for gid in live:
        g = gates[gid]
        if g[0] == "x":
            batch[gid] = (0, 0)
            continue
        if g[0] == "mul":
            read = g[1:]
            batch[gid] = (max(batch[g[1]][0], batch[g[2]][0]) + 1, 0)
        else:
            read = [c for c in g[1] if need[c] & need[gid]]
            depth, nest = max(batch[c] for c in read)
            batch[gid] = (depth, nest + 1)
        for c in read:
            last[c] = max(last.get(c, batch[gid]), batch[gid])
    done: dict[tuple[int, int], list[int]] = {}
    for gid, at in last.items():
        done.setdefault(at, []).append(gid)

    row: dict[tuple[int, int], int] = {}  # (gate, z-degree) -> its row
    free: list[int] = []
    fresh = itertools.count()
    steps: list[tuple] = []
    cap = _sources_per_call(zcap, lanes)
    # batch (0, 0) comes first: x-gate rows are 0, 1, ... in gate order
    for at, members in itertools.groupby(sorted(live, key=batch.get), key=batch.get):
        part: list[tuple[int, list]] = []  # (row, its source rows or row pairs)
        size = 0
        for gid in members:
            g = gates[gid]
            for d in bits(need[gid]):
                row[gid, d] = free.pop() if free else next(fresh)
                if g[0] == "x":
                    continue
                if g[0] == "add":
                    srcs = [row[c, d] for c in g[1] if need[c] >> d & 1]
                else:
                    a, b = g[1:]
                    srcs = [(row[a, p], row[b, d - p]) for p in bits(need[a] & (2 << d) - 1)
                            if need[b] >> d - p & 1]
                if part and size + len(srcs) > cap:
                    steps.append(_step(part, at[1] > 0))
                    part, size = [], 0
                part.append((row[gid, d], srcs))
                size += len(srcs)
        if part:
            steps.append(_step(part, at[1] > 0))
        for gid in done.get(at, ()):
            free.extend(row[gid, d] for d in bits(need[gid]))

    x_ids = circuit.x_gate_ids()
    x_gates = [(i, gates[gid][1]) for i, gid in enumerate(x_ids) if need[gid]]
    out = row.get((circuit.output, zcap))
    return len(x_ids), x_gates, next(fresh), steps, out


def _step(part: list[tuple[int, list]], add: bool) -> tuple:
    """A ``_schedule`` step from (row, its sources) pairs, in row order."""
    dst = np.array([r for r, _ in part], dtype=np.intp)
    src = np.array([s for _, srcs in part for s in srcs], dtype=np.intp)
    counts = [len(srcs) for _, srcs in part]
    starts = None if len(src) == len(part) else np.cumsum([0] + counts[:-1])
    return (None, src, starts, dst) if add else (src[:, 0], src[:, 1], starts, dst)


def eval_trial(circuit: Circuit, t: int, k: int, seed: int) -> int:
    """The XOR over T of [k] of the output's z^t coefficient under
    x_{w,u} -> r_{w,u} * sum_{j in T} a_{w,j}: a field element, nonzero only
    if a multilinear z^t monomial of degree k exists.

    a (host_n x k) and then r (one per x-gate, in gate order) are drawn from
    ``np.random.default_rng((seed, 0))``.  A malformed circuit raises
    ValueError before anything is drawn.
    """
    lanes = min(SUBSET_CHUNK, 1 << k)
    x_count, x_gates, rows, steps, out = _schedule(circuit, t, lanes)
    if out is None:
        return 0
    seed %= 1 << 63  # seed sequences need nonnegative entropy
    rng = np.random.default_rng((seed, 0))
    a = rng.integers(0, 1 << 64, size=(circuit.host_n, k), dtype=np.uint64)
    r = rng.integers(0, 1 << 64, size=x_count, dtype=np.uint64)
    pos, host = np.array(x_gates, dtype=np.intp).T
    # ra[i, j] = r * a_{w, j} for x row i, the pos-th x-gate, on host w: its
    # value at y = 1_T is the XOR of ra[i, j] over j in T
    ra = _clmul_reduce_arrays(r[pos][:, None], a[host])
    store = np.empty((rows, lanes), dtype=np.uint64)
    x_rows = store[: len(x_gates)]
    acc = 0
    for m0 in range(0, 1 << k, lanes):
        masks = np.arange(m0, m0 + lanes)
        x_rows.fill(0)
        for j in range(k):
            np.bitwise_xor(x_rows, ra[:, j, None], out=x_rows, where=(masks >> j) & 1 == 1)
        for a_rows, b_rows, starts, dst in steps:
            vals = store[b_rows]
            if a_rows is not None:
                vals = _clmul_reduce_arrays(store[a_rows], vals)
            store[dst] = vals if starts is None else np.bitwise_xor.reduceat(vals, starts)
        acc ^= int(np.bitwise_xor.reduce(store[out]))
    return acc


def detect_zt_multilinear(circuit: Circuit, t: int, k: int, seed: int = 1) -> bool:
    """One evaluation of ``eval_trial``: True iff it is nonzero.

    One-sided: never true unless a z^t monomial with k distinct host
    vertices exists; when one exists, it is missed with probability at most
    2k/2^64 (see the module docstring).
    """
    return eval_trial(circuit, t, k, seed) != 0


def decide_tpe(
    host: Instance, tree: TreeCandidate, terminals: frozenset[int], seed: int = 1
) -> tuple[bool, int]:
    """(answer, detections run) of the randomized embedding decision:
    z-degree |terminals|, k = tree order.  A tree larger than the host or
    smaller than the terminal set is a certain NO with no detection; else
    one detection decides, and its NO misses with probability at most
    2k/2^64.

    A tree above ``trees.MAX_ORDER`` raises ValueError before any work: the
    detection walks 2^k subsets.
    """
    eta = tree.order
    if eta > MAX_ORDER:
        raise ValueError(f"tree order {eta} exceeds the detection cap {MAX_ORDER}")
    if not all(0 <= t < host.n for t in terminals):
        raise ValueError("terminals outside host vertex range")
    if eta > host.n or len(terminals) > eta:
        return False, 0
    circuit = build_circuit(host, tree, terminals)
    return detect_zt_multilinear(circuit, len(terminals), eta, seed), 1
