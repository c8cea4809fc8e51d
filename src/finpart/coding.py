"""Injective coding of indexed tuple-families into sets of finitary
partitions, and its full decoder.

An indexed family maps slot indices j to families of arity-n disjoint
tuples.  Per slot (j, m-profile) and derivative level k, the encoder
stores Y_k = interior_g(boundary_g^(k)(X)) in a code book; the partitions
carrying the code are the blocks of the l-extensions of the Y_k, where
l = f(j, m, k) comes from a size signature read over the config's own
slots and is injective on the config's keys; `CodingConfig.f` answers
those keys only.  Because each l-tuple has strictly increasing component
sizes, a partition's non-singleton block sizes identify its key and the
component order, so the code book — and from it the original family, via
an alternating-difference formula — can be recovered from the bare
partition set.

A partition of a fixed ground set is determined by its non-singleton
blocks (`maps.ns_injection`), so the partition set H is carried as the
frozenset of each partition's non-singleton block set, with singletons
implicit.  The decoder reads only the blocks of size >= 2 of each element,
so it accepts full partitions as well.

Every per-slot and per-key decision is made once per config, in its
cached plans: each slot's g and (a, m, g) space (`_slot_plan`, all that
`encode` reads), and each key's block sizes, (a, m, l) space, per-member
extension count (what `materialize`'s budget multiplies) and position, a
small int, per block set of a dense key (`_plan`).  On a dense key every
l-tuple has one shared block-set object, built once per (a, l), and
`materialize` returns these objects rather than new frozensets.  `slices`
marks each element's position in a bytearray in one pass over H (a hit
compares by identity and reuses the set's cached hash), reads each dense
l's span of positions as a mask, and buckets only the misses by block
sizes; `decode` then pulls each dense key back on masks, hashing no hit again.

Each member of an indexed family is checked once, by
`core.check_disjoint_tuple`, and read through its return: in `encode`'s
pass on a sparse slot, and by the chain's index lookup on a dense one.

A sequence coder composes this with the subset-sequence/disjoint-tuple
bijection: for one n, read off a config of arity 2^n - 1, it codes a set
of n-sequences of finite sets as slot 0 of an ordinary code book.
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cache
from itertools import count, filterfalse, islice, repeat
from math import prod
from typing import NamedTuple

from .core import check_disjoint_tuple, profile_of
from .maps import disjoint_to_fin, fin_to_disjoint
from .operators import (
    EXTENSION_BUDGET,
    _chain,
    _index_mask,
    _route,
    at_bits,
    count_extensions,
    down,
    down_mask,
    indexed_tuples,
    interior,
    interior_mask,
    up,
    up_mask,
)


class CodingError(ValueError):
    """Configuration or input violates the coding contracts."""


class DecodeError(RuntimeError):
    """A decoded slice failed a faithfulness check."""


# ---------------------------------------------------------------------------
# size signatures

def _primes(count):
    out = []
    x = 2
    while len(out) < count:
        if all(x % p for p in out):
            out.append(x)
        x += 1
    return out


@dataclass(frozen=True)
class SizeSignature:
    """Maps (j, m-profile, k) to a tuple of block sizes l, over a config's
    ordered slots ((j, m), ...), which the config passes in.

    kind "prime": l_i = 2^i * 3^j * 5^{m_1} * ... * q^{m_n} * q'^k with
    consecutive primes; universal and injective, but the sizes explode.
    It ignores the slots.

    kind "compact": l_i = B + i + (n+1)*(slot*(K+1) + k), where slot is
    the position of (j, m) in the slots, B = 1 + the largest profile
    component and K = the largest profile sum over them; keeps the
    extension spaces enumerable.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("prime", "compact"):
            raise CodingError(f"unknown signature kind {self.kind!r}")

    def sizes(self, j, m, k, slots=()):
        """Block sizes l for key (j, m, k) over the slots; validates the key."""
        m = tuple(m)
        n = len(m)
        if not 0 <= k <= sum(m):
            raise CodingError(f"k={k} outside 0..{sum(m)} for profile {m}")
        if self.kind == "prime":
            ps = _primes(n + 3)
            core = ps[1] ** j * prod(
                ps[t + 2] ** mt for t, mt in enumerate(m)
            ) * ps[n + 2] ** k
            return tuple(ps[0] ** i * core for i in range(1, n + 1))
        try:
            slot = slots.index((j, m))
        except ValueError:
            raise CodingError(f"slot ({j}, {m}) not in the signature table")
        base = 1 + max(max(p, default=0) for _, p in slots)
        k_cap = max(sum(p) for _, p in slots)
        off = (n + 1) * (slot * (k_cap + 1) + k)
        return tuple(base + i + off for i in range(1, n + 1))


def block_sizes(sig, j, m, k, n, slots=()):
    """Signature lookup over the slots plus a full contract check at this key:
    l_i >= max(m_i, 2); strictly increasing in i; componentwise
    non-decreasing in k; key-injective over the neighboring keys."""
    m = tuple(m)
    if len(m) != n:
        raise CodingError(f"profile {m} does not have arity {n}")
    l = sig.sizes(j, m, k, slots)
    for i, (mi, li) in enumerate(zip(m, l)):
        if li < max(mi, 2):
            raise CodingError(
                f"size l_{i + 1}={li} below max(m_{i + 1}, 2) for key ({j}, {m}, {k})"
            )
    if any(l[i] >= l[i + 1] for i in range(n - 1)):
        raise CodingError(f"sizes {l} not strictly increasing for key ({j}, {m}, {k})")
    if k > 0:
        prev = sig.sizes(j, m, k - 1, slots)
        if any(x > y for x, y in zip(prev, l)):
            raise CodingError(f"sizes decrease in k at key ({j}, {m}, {k})")
    return l


def validate_signature(sig, slots):
    """Check the full signature contract over every (slot, k) key;
    raises CodingError naming the failing clause.  Returns the table
    (j, m, k) -> sizes."""
    seen = {}
    for j, m in slots:
        n = len(m)
        for k in range(sum(m) + 1):
            l = block_sizes(sig, j, m, k, n, slots)
            if l in seen and seen[l] != (j, m, k):
                raise CodingError(
                    f"signature collision: keys {seen[l]} and ({j}, {m}, {k}) both map to {l}"
                )
            seen[l] = (j, m, k)
    return {key: l for l, key in seen.items()}


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class CodingConfig:
    """Ground size, arity, signature, and the admissible (j, m) slots."""

    a: int
    n: int
    signature: SizeSignature
    slots: tuple  # ordered ((j, m), ...), stored as tuples
    # (j, m, k) -> sizes over the slots' keys, checked once on construction
    _sizes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slots",
                           tuple((j, tuple(m)) for j, m in self.slots))
        for v in (self.a, self.n, *(x for j, m in self.slots for x in (j, *m))):
            if type(v) is not int:
                raise CodingError(f"config value {v!r} is not an int")
        if not self.slots:
            raise CodingError("at least one slot required")
        if len(set(self.slots)) != len(self.slots):
            raise CodingError("duplicate slots")
        for j, m in self.slots:
            if j < 0:
                raise CodingError(f"negative slot index {j}")
            if len(m) != self.n or any(x < 0 for x in m):
                raise CodingError(f"profile {m} invalid for arity {self.n}")
        object.__setattr__(self, "_sizes",
                           validate_signature(self.signature, self.slots))
        for j, m in self.slots:
            g = self.g(j, m)
            if self.a < sum(g):
                raise CodingError(
                    f"ground size {self.a} below sum{g} needed by slot ({j}, {m})"
                )

    def f(self, j, m, k):
        """The block sizes of (j, m, k), which must be one of the keys."""
        try:
            return self._sizes[j, tuple(m), k]
        except KeyError:
            raise CodingError(f"({j}, {tuple(m)}, {k}) is not a key of this config") from None

    def g(self, j, m):
        m = tuple(m)
        return self.f(j, m, sum(m))

    def keys(self):
        for j, m in self.slots:
            for k in range(sum(m) + 1):
                yield j, m, k

    def to_json(self):
        return json.dumps(
            {
                "a": self.a,
                "n": self.n,
                "signature": self.signature.kind,
                "slots": [[j, list(m)] for j, m in self.slots],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(a=d["a"], n=d["n"], signature=SizeSignature(d["signature"]),
                   slots=d["slots"])


def compact_config(a, n, slots):
    return CodingConfig(a, n, SizeSignature("compact"), slots)


# ---------------------------------------------------------------------------
# indexed families

def normalize_indexed(X):
    return {j: frozenset(fam) for j, fam in X.items() if fam}


# ---------------------------------------------------------------------------
# the code book

@dataclass
class CodeBook:
    """Symbolic code: (j, m, k) -> the alpha-closed family Y_{j,m,k}."""

    cfg: CodingConfig
    Y: dict

    def to_json(self):
        entries = {
            f"{j}|{','.join(map(str, m))}|{k}": sorted(
                [list(c) for c in t] for t in fam
            )
            for (j, m, k), fam in sorted(self.Y.items())
        }
        return json.dumps({"config": json.loads(self.cfg.to_json()),
                           "book": entries}, indent=2)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        cfg = CodingConfig.from_json(json.dumps(d["config"]))
        Y = {}
        for key, fams in d["book"].items():
            j, m, k = key.split("|")
            m = tuple(int(x) for x in m.split(",")) if m else ()
            Y[(int(j), m, int(k))] = frozenset(
                tuple(tuple(c) for c in t) for t in fams
            )
        return cls(cfg, Y)


def encode(X, cfg):
    """Build the code book for an indexed family.

    One pass sorts X into its slot families, raising CodingError for a
    member of the wrong arity or whose (j, profile) is not a slot, and
    checks each member of a slot whose chain runs sparse (ValueError),
    which the chain takes as checked; a dense slot's chain checks its
    members by the index lookup, with the same function and messages.

    Per slot, with g and the route at (a, m, g) from `_slot_plan`, it
    iterates the boundary at g and stores each iterate's interior,
    D_k | D_{k+1}.  The chain must die within sum(m)+1 steps; otherwise
    the ground set is too small for this family and CodingError is raised.
    """
    # a list, so that no set merges 1.0 into 1 before the check
    fams = {s: (g, sp, []) for s, (g, sp) in _slot_plan(cfg).items()}
    for j, fam in X.items():
        for t in fam:
            if len(t) != cfg.n:
                raise CodingError(f"member {t!r} does not have arity {cfg.n}")
            m = profile_of(t)
            if (j, m) not in fams:
                raise CodingError(f"profile {m} of {t!r} not admissible "
                                  f"at slot index {j}")
            _, sp, members = fams[j, m]
            if sp is None:
                t = check_disjoint_tuple(t, cfg.a)
            members.append(t)
    book = {}
    for (j, m), (g, sp, members) in fams.items():
        K = sum(m)
        chain = list(islice(_chain(cfg.a, m, g, sp, members), K + 2))
        if chain[K + 1]:
            raise CodingError(
                f"boundary chain for slot ({j}, {m}) does not vanish at step {K + 1}; "
                f"ground size {cfg.a} too small for this family"
            )
        for k in range(K + 1):
            book[(j, m, k)] = chain[k] | chain[k + 1]
    return CodeBook(cfg, book)


# ---------------------------------------------------------------------------
# materialized partitions

@cache
def _block_sets(a, l):
    """The shared block set of each l-tuple of `indexed_tuples(a, l)`; kept
    per (a, l), as the l-side of a dense key does not depend on m."""
    return tuple(map(frozenset, indexed_tuples(a, l)[0]))


class _Key(NamedTuple):
    """One key's entry in a config's plan."""

    l: tuple
    sp: object  # the (a, m, l) space, None where that operator runs sparse
    per_member: int  # l-extensions of one m-tuple (`count_extensions`)


@dataclass(frozen=True)
class _Plan:
    """Every per-key decision of one config, made once (`_plan`)."""

    keys: dict  # (j, m, k) -> its `_Key`
    # shared block set of a dense key -> its position, a small int
    index: dict
    # dense l -> [lo, hi), the positions of its block sets in l-index order
    spans: dict


@cache
def _slot_plan(cfg):
    """Per slot (j, m) of cfg: g and the (a, m, g) space, None if sparse."""
    return {s: (g := cfg.g(*s), _route(cfg.a, s[1], g)) for s in cfg.slots}


@cache
def _plan(cfg):
    """The plan of cfg's keys; the positions run key by key."""
    keys, index, spans = {}, {}, {}
    for j, m, k in cfg.keys():
        l = cfg.f(j, m, k)
        sp = _route(cfg.a, m, l)
        keys[j, m, k] = _Key(l, sp, count_extensions(cfg.a, m, l))
        if sp is not None:
            lo = len(index)
            index.update(zip(_block_sets(cfg.a, l), count(lo)))
            spans[l] = lo, len(index)
    return _Plan(keys, index, spans)


def materialize(book):
    """The partition set carried by a book: for every key, the partitions
    induced by the l-extensions of the stored family, each as the
    frozenset of its non-singleton blocks (every l_i >= 2, so these are
    the components of the l-extension; the singletons are implicit).

    On a dense key the elements are the shared block sets of the l-side
    (`_block_sets`) at the set bits of the family's up mask, so no new
    frozenset is built; a sparse key builds one per extension.

    Returns (partitions, None) or (None, count) when the number of
    candidate extension tuples, each family's size times its key's
    per-member extension count, exceeds EXTENSION_BUDGET.
    A book key outside its config's keys raises CodingError.
    """
    cfg = book.cfg
    plan = _plan(cfg).keys
    if not book.Y.keys() <= plan.keys():
        extra = sorted(book.Y.keys() - plan.keys())
        raise CodingError(f"book keys {extra} are not keys of its config")
    keys = [(key, fam, plan[key]) for key, fam in book.Y.items()]
    total = sum(len(fam) * kp.per_member for _, fam, kp in keys)
    if total > EXTENSION_BUDGET:
        return None, total
    out = set()
    for key, fam, (l, sp, _) in keys:
        if sp is None:
            out.update(map(frozenset, up(cfg.a, key[1], l, fam)))
            continue
        g = up_mask(sp, _index_mask(cfg.a, sp.m, fam))
        out.update(at_bits(_block_sets(cfg.a, l), g))
    return frozenset(out), None


# bytes of a bytearray of 0s and 1s -> the digits of a bit string
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class Slices(NamedTuple):
    """A partition set bucketed by `slices`."""

    hits: dict    # dense l -> mask over indexed_tuples(a, l)
    misses: dict  # l -> list of l-profile tuples, bucketed by block sizes

    def count(self, l):
        return self.hits.get(l, 0).bit_count() + len(self.misses.get(l, ()))


def slices(H, cfg):
    """Bucket a partition set into slices.

    An element equal to a block set of one of cfg's dense keys is a hit
    (by equality, so 1.0 for 1 too: an exact match would walk all of H):
    one pass over H marks its position in the config's plan in a
    bytearray, and each dense l's span of positions is read as that l's
    hit mask, bit i selecting l-tuple i.  Any other element (a full
    partition, a sparse key's block set, junk, malformed blocks) is a miss
    and goes into the bucket of the sorted sizes of its non-singleton
    blocks, holding those blocks in ascending size.  The sizes of an
    l-tuple strictly increase, so bucket l holds l-profile tuples,
    components in order, either way.  A repeated element marks its
    position again, so repeats change no mask."""
    if not isinstance(H, Collection):
        H = list(H)  # the misses are read in a second pass
    plan = _plan(cfg)
    index = plan.index
    size = len(index)
    seen = bytearray(size + 1)  # position `size` marks that some element missed
    # a plain store beats feeding map() to seen.__setitem__, whose method
    # wrapper costs more per call than the whole loop body
    for pos in map(index.get, H, repeat(size)):
        seen[pos] = 1
    misses = defaultdict(list)
    if seen[size]:
        for P in filterfalse(index.__contains__, H):
            ns = [b for b in P if len(b) >= 2]
            if len(ns) > 1:
                ns.sort(key=len)
            misses[tuple(map(len, ns))].append(tuple(ns))
    hits = {l: int(seen[lo:hi][::-1].translate(_DIGITS), 2)
            for l, (lo, hi) in plan.spans.items()}
    return Slices(hits, misses)


def extract_slice(H, cfg, j, m, k):
    """The l-profile tuples of key (j, m, k) present in a partition set
    (block sets or full partitions): elements whose non-singleton block
    sizes match l as a set, with the component order recovered by
    ascending block size."""
    l = cfg.f(j, m, k)
    hits, misses = slices(H, cfg)
    out = frozenset(misses.get(l, ()))
    if l in hits:
        out |= frozenset(at_bits(indexed_tuples(cfg.a, l)[0], hits[l]))
    return out


def pullback_Y(a, m, Z, l):
    """The family of m-profile tuples all of whose l-extensions lie in Z,
    an iterable of l-profile tuples (`operators.down`).

    This inverts the up-closure on interior-closed families: when
    Z = up(Y) for Y interior-closed at some dominating profile, the
    result is exactly Y.  Raises CodingError when the ground set is too
    small for any l-extension or a tuple of Z does not have profile l.
    """
    if a < sum(l):
        raise CodingError(f"ground size {a} below sum{tuple(l)}; pullback would be vacuous")
    try:
        return down(a, m, l, Z)
    except ValueError as e:
        raise CodingError(str(e)) from e


def _book_of_slices(by_l, cfg, check=True):
    """The code book of `decode`'s pullbacks of a partition set's slices.

    On a dense key the pullback runs on masks: the hit mask ORed with the
    mask of the misses (CodingError for a malformed one) goes through
    `down_mask`, and Y_k is built once from the result.  A sparse key
    pulls its misses back by `pullback_Y`.  With check, Y_k must be
    interior-closed at g, by `interior_mask` where both (a, m, l) and
    (a, m, g) are dense."""
    hits, misses = by_l
    Y, slots = {}, _slot_plan(cfg)
    for (j, m, k), (l, sp, _) in _plan(cfg).keys.items():
        y = None
        if sp is None:
            Yk = pullback_Y(cfg.a, m, misses.get(l, ()), l)
        else:
            try:
                y = down_mask(sp, hits[l] | _index_mask(cfg.a, l, misses.get(l, ())))
            except ValueError as e:
                raise CodingError(str(e)) from e
            Yk = frozenset(at_bits(sp.m_tuples, y))
        if check:
            g, sp_g = slots[j, m]
            if sp_g is None or y is None:
                closed = interior(cfg.a, m, g, Yk) == Yk
            else:
                closed = interior_mask(sp_g, y) == y
            if not closed:
                raise DecodeError(
                    f"slice ({j}, {m}, {k}) is not interior-closed after pullback; "
                    "the configuration is too small to decode this input faithfully"
                )
        Y[(j, m, k)] = Yk
    return CodeBook(cfg, Y)


def decode(source, cfg=None, check=True):
    """Recover the indexed family from a code book or a partition set.

    A partition set (block sets as `materialize` gives them, or full
    partitions) is bucketed once by `slices`, and `_book_of_slices` pulls
    each key's slice back to its Y-family by `pullback_Y`, which checks its
    tuples.  Then, per slot, the alternating difference
    Y_0 \\ (Y_1 \\ (... \\ Y_K)) rebuilds the slot family, and slot families
    with the same index are unioned.

    With check=True every Y obtained by pullback is verified to be
    interior-closed at the slot's top profile; failure raises DecodeError
    naming the slice (it means the configuration is too small to be
    faithful for this input).
    """
    if not isinstance(source, CodeBook):
        if cfg is None:
            raise CodingError("decoding a partition set needs the configuration")
        source = _book_of_slices(slices(source, cfg), cfg, check)
    elif cfg is not None and cfg != source.cfg:
        raise CodingError("book was built over a different configuration")
    cfg, Y = source.cfg, source.Y
    out = {}
    for j, m in cfg.slots:
        K = sum(m)
        acc = frozenset(Y.get((j, m, K), ()))
        for k in range(K - 1, -1, -1):
            acc = frozenset(Y.get((j, m, k), ())) - acc
        if acc:
            out[j] = out.get(j, frozenset()) | acc
    return out


# ---------------------------------------------------------------------------
# sequence coder (sets of n-sequences of finite subsets, for one n)

def _seq_length(cfg):
    """The n of a coder of arity 2^n - 1, n >= 1; CodingError otherwise."""
    if cfg.n < 1 or cfg.n & (cfg.n + 1):
        raise CodingError(f"arity {cfg.n} is not 2^n - 1 for any n >= 1")
    return cfg.n.bit_length()


def encode_seq_family(W, cfg):
    """Code a set of n-sequences of subsets, n read off cfg's arity 2^n - 1.

    Each sequence maps through the subset-sequence-to-disjoint-tuple
    bijection (`maps.fin_to_disjoint`) into slot index 0, and `encode`
    checks the family as it checks any other.  A sequence whose length is
    not n, the empty one included, raises CodingError naming it."""
    n = _seq_length(cfg)
    fam = set()
    for w in W:
        if len(w) != n:
            raise CodingError(f"sequence {w!r} does not have length {n}")
        fam.add(fin_to_disjoint(w))
    return encode({0: fam}, cfg)


def decode_seq_family(book):
    """Invert encode_seq_family: the frozenset of n-sequences."""
    n = _seq_length(book.cfg)
    return frozenset(disjoint_to_fin(q, n) for q in decode(book).get(0, ()))
