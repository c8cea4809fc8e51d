"""Polarized Ramsey engine: exhaustive verification over product grids of
k-subsets, exact minimal side sizes by search, and constructive (validated,
not optimal) upper bounds.

A query (j_1..j_n, c, r) asks: how large must the side sets S_1..S_n be so
that every c-coloring of [S_1]^{j_1} x ... x [S_n]^{j_n} admits subsets
T_i of size r with the whole sub-grid [T_1]^{j_1} x ... x [T_n]^{j_n}
monochromatic?

`has_property` decides one grid by a depth-first search over partial
colorings that tests each witness when its last point is colored and cuts
symmetric branches (the first point's color, adjacent transpositions of the
side sets).  Its budget, `max_colorings`, counts search nodes; it also
refuses, before building anything, grids whose witness masks exceed it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb, prod

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
    axes = [
        list(itertools.combinations(range(N), jj)) for N, jj in zip(sizes, j)
    ]
    return [tuple(pt) for pt in itertools.product(*axes)]


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
    exhaustive: bool
    searched: int
    pruned: int = 0
    counterexample: dict = None  # point -> color, when holds is False
    note: str = ""


def _witness_masks(sizes, j, r, index):
    """Per grid point k: the bitmasks of the witness sub-grids whose last
    point is k, so each witness is tested once, when k gets its color."""
    ends = [[] for _ in index]
    for Ts in itertools.product(
        *(itertools.combinations(range(N), r) for N in sizes)
    ):
        mask = 0
        for pt in subgrid(Ts, j):
            mask |= 1 << index[pt]
        ends[mask.bit_length() - 1].append(mask)
    return ends


def _transposition_pairs(sizes, points, index):
    """The grid-point permutations induced by adjacent transpositions
    (x, x+1) of each side set, one list per transposition: the pairs
    (i, g(i)) with i < g(i), in increasing i.  Each is an involution, so the
    lex order of a coloring and its image is decided by the first of these
    pairs whose two points differ in color.  The monochromatic-witness
    property is invariant under them."""
    gens = {}
    for i, pt in enumerate(points):
        for coord, comp in enumerate(pt):
            for x in comp:
                if x + 1 < sizes[coord] and x + 1 not in comp:
                    moved = tuple(x + 1 if y == x else y for y in comp)
                    image = index[pt[:coord] + (moved,) + pt[coord + 1 :]]
                    gens.setdefault((coord, x), []).append((i, image))
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
        if any(bits & w == w for w in ends[k]):
            searched += 1
            continue
        cut = False
        for g in waiting[k]:
            pairs, f = gens[g], front[g]
            if f == len(pairs) or pairs[f][1] != k:
                continue
            changed.append((g, f))
            while f < len(pairs) and pairs[f][1] <= k:
                lo, hi = pairs[f]
                if color[lo] == color[hi]:
                    f += 1
                else:
                    # the image is lex-smaller for every completion: cut;
                    # lex-larger for every completion: g is settled
                    cut = color[hi] < color[lo]
                    f = len(pairs)
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


def has_property(sizes, query, max_colorings=DEFAULT_MAX_COLORINGS, prune=True):
    """Exhaustively decide whether every c-coloring of the grid admits a
    monochromatic r-witness.  Exact: a depth-first search over partial
    colorings, which raises BudgetExceeded rather than guessing once it has
    made `max_colorings` nodes.  Grids whose witness masks alone (one word
    per 64 points each, plus one per point) exceed the budget are refused
    before anything is built.

    With `prune`, two symmetry rules cut the search, both sound together
    because point 0 is the most significant position of the lex order: the
    first point takes color 0, and a partial coloring is cut when its image
    under an adjacent transposition of a side set is lex-smaller for every
    completion.  The lex-least counterexample survives both, so pruning
    returns the same counterexample as the unpruned search."""
    sizes = tuple(sizes)
    j, c, r = query.j, query.c, query.r
    if len(sizes) != len(j):
        raise ValueError("sizes/arity mismatch")
    if any(N < 0 for N in sizes):
        raise ValueError("side sizes must be non-negative")
    P = prod(comb(N, jj) for N, jj in zip(sizes, j))
    W = prod(comb(N, r) for N in sizes)
    if P + W * -(-P // 64) > max_colorings:
        raise BudgetExceeded(
            f"{W} witnesses on {P} points exceed the budget of {max_colorings}"
        )
    points = grid_points(sizes, j)

    if W == 0:
        return PropertyResult(
            holds=False,
            exhaustive=True,
            searched=0,
            counterexample={pt: 0 for pt in points},
            note=f"no witness sets of size {r} exist",
        )
    if P == 0:
        # witnesses exist and the grid is empty: vacuously monochromatic
        return PropertyResult(holds=True, exhaustive=True, searched=0,
                              note="empty grid")
    if any(r < jj for jj in j):
        return PropertyResult(holds=True, exhaustive=True, searched=0,
                              note="vacuous witness (empty sub-grid)")

    index = {pt: i for i, pt in enumerate(points)}
    ends = _witness_masks(sizes, j, r, index)
    gens = _transposition_pairs(sizes, points, index) if prune else []
    color, searched, pruned = _search(P, c, ends, gens, 1 if prune else c,
                                      max_colorings)
    if color is None:
        return PropertyResult(True, True, searched, pruned)
    cex = dict(zip(points, color))
    return PropertyResult(False, True, searched, pruned, cex)


@dataclass
class SearchResult:
    value: int = None          # least N, or None if unknown above the cap
    cap: int = 0
    counterexample: dict = None  # certificate at value - 1, when available
    counterexample_N: int = None
    searched_total: int = 0    # search nodes over all N, as in PropertyResult
    pruned_total: int = 0


def search_min_N(query, cap, max_colorings=DEFAULT_MAX_COLORINGS, prune=True):
    """Least N <= cap such that the property holds on sides of size N.

    Exact (exhaustive per N); the certificate for N-1 is kept so a caller
    can replay why the returned value is minimal."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    last_cex = None
    last_cex_N = None
    searched = pruned = 0
    for N in range(cap + 1):
        res = has_property((N,) * len(query.j), query,
                           max_colorings=max_colorings, prune=prune)
        searched += res.searched
        pruned += res.pruned
        if res.holds:
            return SearchResult(N, cap, last_cex, last_cex_N, searched, pruned)
        last_cex = res.counterexample
        last_cex_N = N
    return SearchResult(None, cap, last_cex, last_cex_N, searched, pruned)


# ---------------------------------------------------------------------------
# constructive upper bounds (sufficient, monotone; never claimed optimal)

@cache
def _graph_bound(rvec):
    """Clique-style bound for pairs (j = 2) with per-color targets rvec,
    via the classical recurrence R(r-bar) <= 2 - c + sum_i R(r-bar - e_i)."""
    rvec = tuple(sorted(rvec))
    if not rvec:
        return 2
    if rvec[0] <= 1:
        return max(rvec[0], 0)
    if len(rvec) == 1:
        return rvec[0]
    if rvec[0] == 2:
        return max(2, _graph_bound(rvec[1:]))
    c = len(rvec)
    return 2 - c + sum(
        _graph_bound(rvec[:i] + (rvec[i] - 1,) + rvec[i + 1 :])
        for i in range(c)
    )


@cache
def _single_coordinate_bound(j, c, r):
    if r <= j:
        return max(r, 0)  # a single (or empty) sub-grid point suffices
    if j == 0:
        return r
    if j == 1:
        return c * (r - 1) + 1  # pigeonhole, exact
    if j == 2:
        return _graph_bound((r,) * c)
    # hypergraph step-down, Erdos--Rado shape: color (j-1)-sets through a
    # large enough lower-uniformity bound
    m = _single_coordinate_bound(j - 1, c, r - 1)
    return j - 1 + c ** comb(m, j - 1)


def upper_bound_R(query):
    """A side size guaranteed sufficient for the query.

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
    last = _single_coordinate_bound(j[-1], c**K, r)
    return max(prefix, last, r)
