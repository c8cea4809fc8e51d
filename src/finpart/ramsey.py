"""Polarized Ramsey engine: exhaustive verification over product grids of
k-subsets, exact minimal side sizes by search, and proven (not optimal)
upper bounds.

A query (j_1..j_n, c, r) asks: how large must the side sets S_1..S_n be so
that every c-coloring of [S_1]^{j_1} x ... x [S_n]^{j_n} admits subsets
T_i of size r with the whole sub-grid [T_1]^{j_1} x ... x [T_n]^{j_n}
monochromatic?

Each verdict follows one rule, proved where it is coded:

- a search decides a grid (`has_property`), depth first over partial
  colorings, testing each witness when its last point is colored and
  cutting symmetric branches; its budget, `max_colorings`, counts search
  nodes, and grids whose witness masks exceed it are refused before
  anything is built;
- with pruning on, a proven bound decides a grid first, with 0 nodes, no
  mask and a note naming it (`_proven`): counting for j = (1, 1), and
  every side at least `upper_bound_R` for every j, pigeonhole included;
- the least side size (`search_min_N`) is settled by one counterexample
  just below the least size a bound decides, or else by a sweep up from
  0, and all the searches of one call spend one pool of `max_colorings`
  nodes.

Grid points are indexed mixed-radix in their per-axis positions (`_axes`):
point (S_1..S_n) has index sum_i pos_i(S_i) * stride_i, the order of
`grid_points`.  So a witness's bitmask is the product of one mask per axis,
each the OR of 2^(pos_i(S) * stride_i) over the j_i-subsets S of T_i, and
an adjacent transposition moves a point by a multiple of one stride; no
point is looked up by its nested tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb, inf, log2, prod

from .operators import BudgetExceeded

DEFAULT_MAX_COLORINGS = 2_000_000


@dataclass(frozen=True)
class RamseyQuery:
    j: tuple
    c: int
    r: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("at least one color required")
        if self.r < 0 or any(x < 0 for x in self.j):
            raise ValueError("sizes must be non-negative")


def grid_points(sizes, j):
    """The product grid, as a list of points; each point is a tuple of one
    j_i-subset (of range(size_i)) per coordinate.  Lexicographic order."""
    return subgrid([range(N) for N in sizes], j)


@dataclass
class ProductColoring:
    """A total coloring of a product grid; colors are 0-based ints."""

    sizes: tuple
    j: tuple
    colors: dict  # point -> color

    def __post_init__(self):
        expected = set(grid_points(self.sizes, self.j))
        if set(self.colors) != expected:
            raise ValueError("coloring is not total on the grid")


def subgrid(Ts, j):
    """All grid points lying within the given subsets T_1..T_n."""
    axes = [list(itertools.combinations(T, jj)) for T, jj in zip(Ts, j)]
    return [tuple(pt) for pt in itertools.product(*axes)]


def check_witness(coloring, Ts, d, r=None):
    """True iff every grid point within T_1 x ... x T_n has color d."""
    Ts = [tuple(sorted(T)) for T in Ts]
    if len(Ts) != len(coloring.j):
        raise ValueError("wrong number of witness sets")
    for T, N in zip(Ts, coloring.sizes):
        if any(not 0 <= x < N for x in T):
            raise ValueError(f"witness set {T} not within the side set")
        if r is not None and len(T) != r:
            raise ValueError(f"witness set {T} does not have size {r}")
    return all(coloring.colors[pt] == d for pt in subgrid(Ts, coloring.j))


@dataclass
class PropertyResult:
    """Outcome of `has_property`.  `searched` counts the search nodes
    (partial colorings) that passed the symmetry tests and `pruned` the
    nodes those tests cut; both are 0 when the answer needs no search."""

    holds: bool
    searched: int
    pruned: int = 0
    counterexample: dict = None  # point -> color, when holds is False
    note: str = ""


def _axes(sizes, j):
    """Per coordinate i: (pos_i, stride_i), where pos_i maps each
    j_i-subset of range(N_i) to its position in lexicographic order and
    stride_i = prod over i' > i of C(N_i', j_i').  A grid point's index in
    `grid_points` order is mixed-radix in its per-axis positions:
    sum_i pos_i(point_i) * stride_i."""
    axes, stride = [], 1
    for N, jj in reversed(tuple(zip(sizes, j))):
        pos = {T: p for p, T in enumerate(itertools.combinations(range(N), jj))}
        axes.append((pos, stride))
        stride *= len(pos)
    return axes[::-1]


def _witness_masks(sizes, j, r):
    """Per grid point k: the bitmasks of the witness sub-grids whose last
    point is k, so each witness is tested once, when k gets its color.

    A witness T_1 x ... x T_n is a product of per-axis masks: spread_i(T)
    sums the distinct bits 2^(pos_i(S) * stride_i), read from a table per
    position, over the j_i-subsets S of T (1 when j_i = 0), and the
    witness's mask is the product of its spreads.  The exponents
    pos_1 * stride_1 + ... + pos_n * stride_n of the product's terms are
    distinct grid indices, so no carry occurs and the product is exactly
    the OR of the witness's points.  Witnesses come in
    itertools.product order of the r-subsets."""
    axes = _axes(sizes, j)
    spreads = []
    for N, jj, (pos, stride) in zip(sizes, j, axes):
        bit = {S: 1 << p * stride for S, p in pos.items()}.__getitem__
        spreads.append([sum(map(bit, itertools.combinations(T, jj)))
                        for T in itertools.combinations(range(N), r)])
    ends = [[] for _ in range(prod(len(pos) for pos, _ in axes))]
    for mask in map(prod, itertools.product(*spreads)):
        ends[mask.bit_length() - 1].append(mask)
    return ends


def _transposition_pairs(sizes, j):
    """The grid-point permutations induced by adjacent transpositions
    (x, x+1) of each side set, one list per transposition: the pairs
    (i, g(i)) with i < g(i), in increasing i.  Each is an involution, so the
    lex order of a coloring and its image is decided by the first of these
    pairs whose two points differ in color.  The monochromatic-witness
    property is invariant under them.

    Moving x to x+1 in coordinate i's component S changes only that
    component's position, so g(i) = i + (pos_i(S') - pos_i(S)) * stride_i
    (`_axes`)."""
    axes = _axes(sizes, j)
    # per coordinate and position: (x, g(i) - i) for each x that can move
    moves = [
        [[(x, (pos[tuple(x + 1 if y == x else y for y in S)] - p) * stride)
          for x in S if x + 1 < N and x + 1 not in S]
         for S, p in pos.items()]
        for N, (pos, stride) in zip(sizes, axes)
    ]
    gens = {}
    positions = itertools.product(*(range(len(pos)) for pos, _ in axes))
    for i, pt in enumerate(positions):
        for coord, p in enumerate(pt):
            for x, step in moves[coord][p]:
                gens.setdefault((coord, x), []).append((i, i + step))
    return list(gens.values())


def _search(P, c, ends, gens, first_colors, budget):
    """Depth-first search, with an explicit stack, for a coloring of points
    0..P-1 with no monochromatic witness.  Points are colored in index order
    and colors tried in increasing order, so point 0 is the most significant
    position of the lex order.  Point 0 takes only the first `first_colors`
    colors.  A node is cut when, for some generator g, every completion is
    lex-larger than its image under g.  Returns (colors or None, searched,
    pruned); raises BudgetExceeded after `budget` nodes."""
    color = [-1] * P
    by_color = [0] * c       # per color: bitmask of the points holding it
    front = [0] * len(gens)  # per generator: its first pair not known equal
    size = [len(pairs) for pairs in gens]  # per generator: its number of pairs
    undo = [()] * P          # per point: (generator, front) pairs to restore
    # per point: the generators with a pair ending there
    waiting = [[] for _ in range(P)]
    for g, pairs in enumerate(gens):
        for _, hi in pairs:
            waiting[hi].append(g)
    searched, pruned = 0, c - first_colors
    k = 0
    while k >= 0:
        d = color[k]
        if d >= 0:
            by_color[d] ^= 1 << k
            for g, f in undo[k]:
                front[g] = f
        d += 1
        if d == (c if k else first_colors):
            color[k] = -1
            k -= 1
            continue
        if searched + pruned >= budget:
            raise BudgetExceeded(f"search exceeds the budget of {budget} nodes")
        color[k] = d
        bits = by_color[d] = by_color[d] | 1 << k
        undo[k] = changed = []
        for w in ends[k]:
            if bits & w == w:
                break  # a witness ending at k is monochromatic
        else:
            w = None
        if w is not None:
            searched += 1
            continue
        cut = False
        for g in waiting[k]:
            pairs, f, n = gens[g], front[g], size[g]
            if f == n or pairs[f][1] != k:
                continue
            changed.append((g, f))
            while f < n and pairs[f][1] <= k:
                lo, hi = pairs[f]
                if color[lo] == color[hi]:
                    f += 1
                else:
                    # the image is lex-smaller for every completion: cut;
                    # lex-larger for every completion: g is settled
                    cut = color[hi] < color[lo]
                    f = n
            front[g] = f
            if cut:
                break
        if cut:
            pruned += 1
            continue
        searched += 1
        if k == P - 1:
            return color, searched, pruned
        k += 1
    return None, searched, pruned


def _most_points(m, n, r):
    """The largest E such that E points spread as evenly as possible over
    n columns of m rows give sum over columns y of C(d_y, r) at most
    (r - 1) * C(m, r), where d_y is the number of points in column y."""
    cap = (r - 1) * comb(m, r)
    lo, hi = 0, m * n  # E = lo fits, E = hi + 1 does not
    while lo < hi:
        E = (lo + hi + 1) // 2
        q, s = divmod(E, n)
        if s * comb(q + 1, r) + (n - s) * comb(q, r) <= cap:
            lo = E
        else:
            hi = E - 1
    return lo


def _class_bound(sizes, j, r):
    """U, an upper bound on the points one color can hold with no
    monochromatic r-witness; None for every j but (1, 1).  (For j = (1,)
    the exact U = r - 1 decides c * (r - 1) < N, the sides that
    upper_bound_R's pigeonhole decides, so it is not coded.)

    On an m x n grid, in a witness-free class each r-set of rows lies
    inside at most r - 1 columns, so the column degrees d_y satisfy
    sum_y C(d_y, r) <= (r - 1) * C(m, r) (Kovari, Sos and Turan).
    C(., r) is convex, so even degrees give the least sum for a total;
    U is the largest total whose even sum fits, taken over both
    orientations."""
    if j != (1, 1):
        return None
    m, n = sizes
    return min(_most_points(m, n, r), _most_points(n, m, r))


def _grid_size(sizes, j, r):
    """(P, W, words): the grid's points, its witnesses, and the words their
    masks take, one per 64 points for each witness plus one per point."""
    P = prod(comb(N, jj) for N, jj in zip(sizes, j))
    W = prod(comb(N, r) for N in sizes)
    return P, W, P + W * -(-P // 64)


@cache
def _upper_bound(query):
    """upper_bound_R(query), or inf where its work budget refuses it: a
    refused bound decides no grid.  Kept per query, refusals included, so
    the probe and each search of a sweep pay for the bound once."""
    try:
        return upper_bound_R(query)
    except BudgetExceeded:
        return inf


def _floor_bits(j, c, r):
    """b with upper_bound_R(RamseyQuery((j,), c, r)) >= 2 ** b wherever it
    is not refused, so a side of at most b bits is below it; -1 where no
    floor is coded.  j >= 2 with r > j and c > 1 has one: the graph
    recurrence gives R(v) >= 2 + sum_i (v_i - 2) (by induction, each of its
    k terms R(v - e_i) is at least 1 + that sum, so R(v) is at least 2 + k
    times it), so the graph bound at target r - j + 2 is at least
    L = 2 + c * (r - j), and b is L's top bit at j = 2.  For j >= 3 the
    first Erdos--Rado step adds c ** C(m, 2) > 2 ** C(L, 2), and each later
    step only makes the bound larger, so b = C(L, 2): no power is built."""
    if j < 2 or r <= j or c < 2:
        return -1
    L = 2 + c * (r - j)
    return L.bit_length() - 1 if j == 2 else comb(L, 2)


def _proven(sizes, query):
    """The note of a proven bound that decides the grid, which builds no
    mask; None where neither does.  Both need a grid with witnesses,
    points and r >= every j_i.  The counting test: c colors of at most U
    points each (`_class_bound`) cannot cover its P points.  The side
    bound: every side is at least upper_bound_R(query) (`_upper_bound`),
    read only where the smallest side is not below the floor of j_1
    (`_floor_bits`), as each peel takes a max over its prefix, so
    upper_bound_R(j) >= upper_bound_R(j[:1])."""
    j, c, r = query.j, query.c, query.r
    P, W, _ = _grid_size(sizes, j, r)
    if not (W and P and all(r >= jj for jj in j)):
        return None
    U = _class_bound(sizes, j, r)
    if U is not None and c * U < P:
        return (f"counting: {c} colors of at most {U} points each "
                f"cover fewer than {P} points")
    # a side below the floor is below the bound, which is then not read
    if j and min(sizes).bit_length() <= _floor_bits(j[0], c, r):
        return None
    bound = _upper_bound(query)
    if all(N >= bound for N in sizes):
        return f"bound: every side is at least upper_bound_R = {bound}"
    return None


def has_property(sizes, query, max_colorings=DEFAULT_MAX_COLORINGS, prune=True,
                 *, _nodes=None):
    """Exhaustively decide whether every c-coloring of the grid admits a
    monochromatic r-witness.  Exact: a depth-first search over partial
    colorings, which raises BudgetExceeded rather than guessing once it has
    made `max_colorings` nodes.  Grids whose witness masks alone (one word
    per 64 points each, plus one per point) exceed the budget are refused
    before anything is built; a negative budget raises ValueError.

    With `prune`, a proven bound (`_proven`) may decide the grid first,
    before the budget refusal: it holds with 0 searched, 0 pruned and the
    bound's note.  Without `prune` no bound is read: the search is the
    plain unpruned oracle, the one that checks the bounds.

    With `prune`, two symmetry rules cut the search, both sound together
    because point 0 is the most significant position of the lex order: the
    first point takes color 0, and a partial coloring is cut when its image
    under an adjacent transposition of a side set is lex-smaller for every
    completion.  The lex-least counterexample survives both, so pruning
    returns the same counterexample as the unpruned search.

    `_nodes`, for `search_min_N` only, lowers the node limit below
    `max_colorings`; the mask refusal still compares with `max_colorings`."""
    sizes = tuple(sizes)
    j, c, r = query.j, query.c, query.r
    if len(sizes) != len(j):
        raise ValueError("sizes/arity mismatch")
    if any(N < 0 for N in sizes):
        raise ValueError("side sizes must be non-negative")
    if max_colorings < 0:
        raise ValueError("max_colorings must be non-negative")
    note = prune and _proven(sizes, query)
    if note:
        return PropertyResult(holds=True, searched=0, note=note)
    P, W, words = _grid_size(sizes, j, r)
    if words > max_colorings:
        raise BudgetExceeded(f"{W} witnesses on {P} points take {words} mask "
                             f"words, over the budget of {max_colorings}")
    if W == 0:
        return PropertyResult(
            holds=False,
            searched=0,
            counterexample={pt: 0 for pt in grid_points(sizes, j)},
            note=f"no witness sets of size {r} exist",
        )
    if P == 0:
        # witnesses exist and the grid is empty: vacuously monochromatic
        return PropertyResult(holds=True, searched=0, note="empty grid")
    if any(r < jj for jj in j):
        return PropertyResult(holds=True, searched=0,
                              note="vacuous witness (empty sub-grid)")

    ends = _witness_masks(sizes, j, r)
    gens = _transposition_pairs(sizes, j) if prune else []
    color, searched, pruned = _search(P, c, ends, gens, 1 if prune else c,
                                      max_colorings if _nodes is None else _nodes)
    if color is None:
        return PropertyResult(True, searched, pruned)
    cex = dict(zip(grid_points(sizes, j), color))
    return PropertyResult(False, searched, pruned, cex)


@dataclass
class SearchResult:
    value: int = None          # least N, or None if unknown above the cap
    cap: int = 0
    counterexample: dict = None  # certificate at value - 1, when available
    counterexample_N: int = None
    searched_total: int = 0    # nodes of the searches that ran, as in PropertyResult
    pruned_total: int = 0


def search_min_N(query, cap, max_colorings=DEFAULT_MAX_COLORINGS):
    """Least N <= cap such that the property holds on sides of size N.

    Exact.  The property is monotone in N: a coloring with no
    monochromatic witness restricts to one on every smaller grid, so a
    counterexample at N - 1 shows that every N' < N fails too.  Hence the
    search checks the top first: where a proven bound (`_proven`) decides
    some least N* <= cap + 1, one search at N* - 1 settles the answer when
    it finds a counterexample (the value is N*, or None when N* > cap).
    Where that probe holds (the bound was loose), and where no bound
    decides a size up to cap + 1, the sizes below are searched upward from
    0.

    Every search of the call, the probe and each size of the sweep, gets
    the nodes of `max_colorings` that the searches before it left, and a
    refused search is raised at once.  So a bound above the true value
    never becomes the value: the probe just below it holds, or is refused.
    The mask refusal compares with `max_colorings` throughout; it never
    refuses the probe, as the scan for N* passes every size from 1 to
    N* - 1 inside the mask budget, and the masks at 0 take no word.  A
    negative `max_colorings` raises ValueError, as it does in
    `has_property`.

    The counterexample at value - 1 (at the cap when the value is None) is
    kept so a caller can replay why the value is minimal.  The totals count
    the nodes of the searches that ran."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if max_colorings < 0:
        raise ValueError("max_colorings must be non-negative")
    j, r = query.j, query.r
    # N*, the least N <= cap + 1 a proven bound decides; neither bound
    # applies where r < some j_i, whatever the sizes, so that skips the scan.
    # The sweep stops at an undecided N whose masks the budget refuses, and
    # masks grow with N, so a probe above it would be refused: stop there.
    top = None
    if all(r >= jj for jj in j):
        for N in range(1, cap + 2):
            if _proven((N,) * len(j), query):
                top = N
                break
            if _grid_size((N,) * len(j), j, r)[2] > max_colorings:
                break
    stop = cap + 1  # the sweep's end
    searched = pruned = 0
    if top is not None:
        stop = top - 1
        probe = has_property((stop,) * len(j), query,
                             max_colorings=max_colorings)
        searched, pruned = probe.searched, probe.pruned
        if not probe.holds:
            return SearchResult(top if top <= cap else None, cap,
                                probe.counterexample, stop, searched, pruned)
    last_cex = None
    last_cex_N = None
    for N in range(stop):
        res = has_property((N,) * len(j), query, max_colorings=max_colorings,
                           _nodes=max_colorings - searched - pruned)
        searched += res.searched
        pruned += res.pruned
        if res.holds:
            return SearchResult(N, cap, last_cex, last_cex_N, searched, pruned)
        last_cex = res.counterexample
        last_cex_N = N
    value = stop if top is not None else None
    return SearchResult(value, cap, last_cex, last_cex_N, searched, pruned)


# ---------------------------------------------------------------------------
# proven upper bounds (sufficient, monotone; never claimed optimal)

# Most work the upper bounds may do, refused with BudgetExceeded
# before it starts: steps of the graph recurrence (target vectors times
# colors), and bits of a power c ** e.
_GRAPH_WORK = 1_000_000
_BOUND_BITS = 1 << 20


def _power(c, e):
    """c ** e, refused when it would have over _BOUND_BITS bits."""
    if c > 1 and (e > _BOUND_BITS or e * log2(c) > _BOUND_BITS):
        raise BudgetExceeded(f"the bound has over {_BOUND_BITS} bits")
    return c**e


def _graph_bound(c, r):
    """Clique-style bound for pairs (j = 2) with c colors, each with
    target r >= 3, via the classical recurrence
    R(r-bar) <= 2 - c + sum_i R(r-bar - e_i), where a color whose target
    reaches 2 drops out and a single color needs its own target.  Built
    bottom-up over the sorted target vectors with entries 3..r, shortest
    first: comb(c + r - 2, c) vectors of up to c terms each."""
    if c == 1:
        return r
    # c * (r - 2) is a cheap lower bound on the work, tested first
    if c * (r - 2) > _GRAPH_WORK or c * comb(c + r - 2, c) > _GRAPH_WORK:
        raise BudgetExceeded(
            f"the graph bound takes over {_GRAPH_WORK} recurrence steps")
    R = {(x,): x for x in range(3, r + 1)}
    for k in range(2, c + 1):
        # lexicographic order: each sorted v - e_i lies below v termwise,
        # so it comes first (or is one shorter, once its 2 drops out)
        for v in itertools.combinations_with_replacement(range(3, r + 1), k):
            R[v] = 2 - k
            for i in range(k):
                w = tuple(sorted(v[:i] + (v[i] - 1,) + v[i + 1:]))
                R[v] += R[w[1:] if w[0] == 2 else w]
    return R[(r,) * c]


@cache
def _single_coordinate_bound(j, c, r):
    if r <= j:
        return max(r, 0)  # a single (or empty) sub-grid point suffices
    if j == 0 or c == 1:
        return r  # every r-subset will do, and a side needs r points
    if j == 1:
        return c * (r - 1) + 1  # pigeonhole, exact
    # hypergraph step-down, Erdos--Rado shape: color (k-1)-sets through a
    # large enough bound at uniformity k - 1, up from the graph bound at
    # k = 2, whose target is r - j + 2
    m = _graph_bound(c, r - j + 2)
    for k in range(3, j + 1):
        m = k - 1 + _power(c, comb(m, k - 1))
    return m


def upper_bound_R(query):
    """A side size proven sufficient for the query; `has_property` reads
    it as a verdict, so each step is a theorem, never a guess.

    One coordinate: r when r <= j, j = 0 or c = 1; pigeonhole for j = 1;
    the graph recurrence for j = 2, stepped up by Erdos--Rado,
    R_k(t) <= k - 1 + c ** C(R_(k-1)(t - 1), k - 1), for larger j.
    Coordinates are peeled off one at a time: once sides for the first
    n-1 coordinates are fixed, the last coordinate is colored by the full
    color pattern over the remaining sub-grid, which costs c**K colors for
    K the number of points over the first n-1 coordinates."""
    j, c, r = query.j, query.c, query.r
    if not j:
        return max(r, 0)
    if len(j) == 1:
        return _single_coordinate_bound(j[0], c, r)
    prefix = upper_bound_R(RamseyQuery(j[:-1], c, r))
    K = prod(comb(prefix, jj) for jj in j[:-1])
    last = _single_coordinate_bound(j[-1], _power(c, K), r)
    return max(prefix, last, r)
