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

Fingerprints.  The circuit has one x-gate per pair (w, u) where w can pay
u's plough demand and every child of u has a placement adjacent to w, and
its z^t coefficient is

    Q_t = sum over phi of prod_u x_{phi(u),u},

phi running over the maps of the tree into the host that respect arcs and
capacities and hit t terminals (with multiplicity), each exactly once.  A
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

Proven miss bound: let phi be injective.  Its r-monomial determines phi,
so no other term of F shares it, and its coefficient det(A_phi) is a
nonzero polynomial, since the rows are distinct sets of indeterminates.
So F is a nonzero polynomial of total degree 2k in (r, a), and by
Schwartz-Zippel one trial gives F = 0 with probability at most 2k/2^64.
A detection is one trial.

The evaluation runs over GF(2^64)[z]/(z^(t+1)), vectorised over lanes, one
per subset T, in chunks of SUBSET_CHUNK lanes; each gate's value
is dropped after its last consumer, so memory stays at the live gates times
SUBSET_CHUNK times t+1 words, plus one word per x-gate and lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import _clmul_reduce_arrays
from .digraph import Instance
from .trees import MAX_ORDER, TreeCandidate

# Gate-count ceiling: one x-gate, and an add and a mul per child, per pair,
# plus the output sum: at most n*(3*eta - 2) + 1 <= 3*eta*n gates, below
# CIRCUIT_SIZE_C * n^3 for every n >= 1, eta <= n.
CIRCUIT_SIZE_C = 10


@dataclass
class Circuit:
    """Monotone arithmetic circuit in topological gate order.

    Gate encodings: ("x", host_vertex, tree_vertex, z_exp), the leaf
    z^z_exp * x_{host_vertex,tree_vertex}; ("add", ids), a sum, 0 when ids is
    empty; ("mul", a, b), a product.
    """

    gates: list[tuple]
    output: int
    host_n: int
    tree_order: int
    prepruning_bound: int = 0

    def x_gate_ids(self) -> list[int]:
        return [i for i, g in enumerate(self.gates) if g[0] == "x"]

    def validate(self) -> None:
        """Structural monotonicity/topology check."""
        for i, g in enumerate(self.gates):
            kind = g[0]
            if kind == "x":
                assert g[3] >= 0, "negative z power"
            elif kind == "add":
                assert all(0 <= c < i for c in g[1]), "add gate references forward"
            else:
                assert kind == "mul", f"unknown gate kind {kind}"
                assert 0 <= g[1] < i and 0 <= g[2] < i, "mul gate references forward"
        assert 0 <= self.output < len(self.gates)


def _rooted_structure(tree: TreeCandidate):
    """Return (order of vertices deepest-first, in_children, out_children),
    the tree rooted at vertex 0, from the ``TreeCandidate`` layout: arc i
    joins vertex i+1 to its parent, and the order is descending (free_code, id)."""
    in_children: list[list[int]] = [[] for _ in range(tree.order)]
    out_children: list[list[int]] = [[] for _ in range(tree.order)]
    for v, (a, b) in enumerate(tree.arcs, start=1):
        if a == v:
            in_children[b].append(v)
        else:
            out_children[a].append(v)
    order = sorted(range(tree.order), key=lambda v: (tree.free_code[v], v), reverse=True)
    return order, in_children, out_children


def build_circuit(host: Instance, tree: TreeCandidate, terminals: frozenset[int]) -> Circuit:
    """Shared-DAG circuit for Q(X, z): tree rooted at vertex 0, z on the terminals.

    A pair (u, w) gets gates only when w pays u's demand and every child of
    u has a placement adjacent to w, so pruned pairs leave no gates behind.
    """
    if not all(0 <= t < host.n for t in terminals):
        raise ValueError("terminals outside host vertex range")
    n, eta = host.n, tree.order
    order, in_children, out_children = _rooted_structure(tree)

    gates: list[tuple] = []

    def append(gate: tuple) -> int:
        gates.append(gate)
        return len(gates) - 1

    def add_gate(ids: list[int]) -> int:
        return ids[0] if len(ids) == 1 else append(("add", tuple(ids)))

    qid: dict[tuple[int, int], int] = {}
    for u in order:
        for w in range(n):
            if tree.demand[u] > host.ploughs[w]:
                continue
            branches = [
                [qid[v, wp] for wp in adj[w] if (v, wp) in qid]
                for children, adj in ((in_children, host.in_adj), (out_children, host.out_adj))
                for v in children[u]
            ]
            if not all(branches):
                continue
            acc = append(("x", w, u, int(w in terminals)))
            for ids in branches:
                acc = append(("mul", acc, add_gate(ids)))
            qid[u, w] = acc

    output = add_gate([qid[0, w] for w in range(n) if (0, w) in qid])
    bound = n * (3 * eta - 2) + 1
    assert len(gates) <= bound <= 3 * eta * n <= CIRCUIT_SIZE_C * n**3
    circ = Circuit(gates=gates, output=output, host_n=n, tree_order=eta, prepruning_bound=bound)
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

#: lanes, one per subset T of [k], evaluated together; a gate's value holds
#: at most SUBSET_CHUNK * (t+1) field words
SUBSET_CHUNK = 1 << 10


def _operands(gate: tuple) -> tuple:
    return gate[1] if gate[0] == "add" else gate[1:3] if gate[0] == "mul" else ()


def _last_readers(circuit: Circuit) -> dict[int, int]:
    """Each gate the output depends on -> the last such gate reading it.

    Placements of a subtree that no placement of its parent uses are absent.
    """
    last = {circuit.output: circuit.output}
    for gid in range(circuit.output, -1, -1):
        if gid in last:
            for c in _operands(circuit.gates[gid]):
                last.setdefault(c, gid)
    return last


def _add(parts: list) -> Optional[tuple]:
    """Sum of (lo, arr) values, arr[d] holding the z^(lo+d) coefficients."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    lo = min(p[0] for p in parts)
    hi = max(p[0] + len(p[1]) for p in parts)
    out = np.zeros((hi - lo,) + parts[0][1].shape[1:], dtype=np.uint64)
    for plo, arr in parts:
        out[plo - lo : plo - lo + len(arr)] ^= arr
    return lo, out


def _mul(a: tuple, b: tuple, zcap: int) -> Optional[tuple]:
    """Product of (lo, arr) values in GF(2^64)[z]/(z^(zcap+1))."""
    lo = a[0] + b[0]
    if lo > zcap:
        return None
    pa, pb = a[1][: zcap - lo + 1], b[1][: zcap - lo + 1]
    prod = _clmul_reduce_arrays(pa[:, None], pb[None, :])
    out = np.zeros((min(len(pa) + len(pb) - 1, zcap - lo + 1),) + pa.shape[1:], dtype=np.uint64)
    for i in range(len(pa)):
        m = min(len(pb), len(out) - i)
        out[i : i + m] ^= prod[i, :m]
    return lo, out


def _evaluate(circuit: Circuit, zcap: int, x_vals: np.ndarray, last: dict) -> Optional[np.ndarray]:
    """The output's z^zcap coefficient in every lane, the i-th x-gate set to
    x_vals[i]; each gate's value is dropped after its last reader."""
    x_rows = {gid: i for i, gid in enumerate(circuit.x_gate_ids())}
    vals: dict[int, Optional[tuple]] = {}
    for gid, gate in enumerate(circuit.gates):
        if gid not in last:
            continue
        if gate[0] == "x":
            val = (gate[3], x_vals[x_rows[gid]][None])
        elif gate[0] == "add":
            val = _add([vals[c] for c in gate[1]])
        else:
            a, b = vals[gate[1]], vals[gate[2]]
            val = None if a is None or b is None else _mul(a, b, zcap)
        vals[gid] = val
        for c in _operands(gate):
            if last[c] == gid:
                vals.pop(c, None)
    out = vals[circuit.output]
    if out is None or not out[0] <= zcap < out[0] + len(out[1]):
        return None
    return out[1][zcap - out[0]]


def eval_trial(circuit: Circuit, t: int, k: int, seed: int) -> int:
    """The XOR over T of [k] of the output's z^t coefficient under
    x_{w,u} -> r_{w,u} * sum_{j in T} a_{w,j}: a field element, nonzero only
    if a multilinear z^t monomial of degree k exists.

    a (host_n x k) and then r (one per x-gate, in gate order) are drawn from
    ``np.random.default_rng((seed, 0))``.
    """
    last = _last_readers(circuit)
    x_w = np.array([circuit.gates[g][1] for g in circuit.x_gate_ids()], dtype=np.intp)
    seed %= 1 << 63  # seed sequences need nonnegative entropy
    rng = np.random.default_rng((seed, 0))
    a = rng.integers(0, 1 << 64, size=(circuit.host_n, k), dtype=np.uint64)
    r = rng.integers(0, 1 << 64, size=len(x_w), dtype=np.uint64)
    # ra[i, j] = r_i * a_{w_i, j}: x-gate i's value at y = 1_T is the XOR of
    # ra[i, j] over j in T
    ra = _clmul_reduce_arrays(r[:, None], a[x_w])
    step = min(SUBSET_CHUNK, 1 << k)
    acc = 0
    for m0 in range(0, 1 << k, step):
        masks = np.arange(m0, m0 + step)
        x_vals = np.zeros((len(x_w), step), dtype=np.uint64)
        for j in range(k):
            x_vals ^= np.where((masks >> j) & 1 == 1, ra[:, j, None], np.uint64(0))
        out = _evaluate(circuit, t, x_vals, last)
        if out is not None:
            acc ^= int(np.bitwise_xor.reduce(out))
    return acc


def detect_zt_multilinear(circuit: Circuit, t: int, k: int, seed: int = 1) -> bool:
    """One evaluation of ``eval_trial``: True iff it is nonzero.

    One-sided: never true unless a z^t monomial with k distinct host
    vertices exists; when one exists, it is missed with probability at most
    2k/2^64 (see the module docstring).
    """
    return eval_trial(circuit, t, k, seed) != 0


def solve_tpe(
    host: Instance, tree: TreeCandidate, terminals: frozenset[int], seed: int = 1
) -> bool:
    """Randomized embedding decision: z-degree |terminals|, k = tree order.

    A tree above ``trees.MAX_ORDER`` raises ValueError before any work: the
    detection walks 2^k subsets.
    """
    eta = tree.order
    if eta > MAX_ORDER:
        raise ValueError(f"tree order {eta} exceeds the detection cap {MAX_ORDER}")
    if not all(0 <= t < host.n for t in terminals):
        raise ValueError("terminals outside host vertex range")
    if eta > host.n or len(terminals) > eta:
        return False
    return detect_zt_multilinear(build_circuit(host, tree, terminals), len(terminals), eta, seed)
