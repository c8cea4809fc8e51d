"""Injective coding of indexed tuple-families into sets of finitary
partitions, and its full decoder.

An indexed family maps slot indices j to families of arity-n disjoint
tuples.  Per slot (j, m-profile) and derivative level k, the encoder
stores Y_k = interior_g(boundary_g^(k)(X)) in a code book; the partitions
carrying the code are the blocks of the l-extensions of the Y_k, where
l = sizes(j, m, k) is an injective size signature.  Because each l-tuple
has strictly increasing component sizes, a partition's non-singleton block
sizes identify its key and the component order, so the code book — and
from it the original family, via an alternating-difference formula — can
be recovered from the bare partition set.

A sequence coder composes this with the subset-sequence/disjoint-tuple
bijection to code sets of fixed-arity sequences of finite sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod

from .core import (
    check_disjoint_tuple,
    ns_blocks,
    partition_from_ns,
    profile_of,
)
from .maps import disjoint_to_fin, fin_to_disjoint
from .operators import (
    EXTENSION_BUDGET,
    boundary,
    count_extensions,
    down,
    interior,
    up,
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
    """Maps (j, m-profile, k) to a tuple of block sizes l.

    kind "prime": l_i = 2^i * 3^j * 5^{m_1} * ... * q^{m_n} * q'^k with
    consecutive primes; universal and injective, but the sizes explode.

    kind "compact": l_i = B + i + (n+1)*(slot*(K+1) + k) over an explicit
    ordered slot table, with B = 1 + the largest profile component and
    K = the largest profile sum; keeps the extension spaces enumerable.
    """

    kind: str
    slot_table: tuple = ()  # ordered ((j, m), ...); required for "compact"

    def __post_init__(self):
        if self.kind not in ("prime", "compact"):
            raise CodingError(f"unknown signature kind {self.kind!r}")
        if self.kind == "compact" and not self.slot_table:
            raise CodingError("compact signature needs a slot table")

    @property
    def base(self):
        return 1 + max(
            (max(m, default=0) for _, m in self.slot_table), default=0
        )

    @property
    def k_cap(self):
        return max((sum(m) for _, m in self.slot_table), default=0)

    def sizes(self, j, m, k):
        """Block sizes l for key (j, m, k); validates the key."""
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
            slot = self.slot_table.index((j, m))
        except ValueError:
            raise CodingError(f"slot ({j}, {m}) not in the signature table")
        off = (n + 1) * (slot * (self.k_cap + 1) + k)
        return tuple(self.base + i + off for i in range(1, n + 1))


def block_sizes(sig, j, m, k, n):
    """Signature lookup plus a full contract check at this key:
    l_i >= max(m_i, 2); strictly increasing in i; componentwise
    non-decreasing in k; key-injective over the neighboring keys."""
    m = tuple(m)
    if len(m) != n:
        raise CodingError(f"profile {m} does not have arity {n}")
    l = sig.sizes(j, m, k)
    for i, (mi, li) in enumerate(zip(m, l)):
        if li < max(mi, 2):
            raise CodingError(
                f"size l_{i + 1}={li} below max(m_{i + 1}, 2) for key ({j}, {m}, {k})"
            )
    if any(l[i] >= l[i + 1] for i in range(n - 1)):
        raise CodingError(f"sizes {l} not strictly increasing for key ({j}, {m}, {k})")
    if k > 0:
        prev = sig.sizes(j, m, k - 1)
        if any(x > y for x, y in zip(prev, l)):
            raise CodingError(f"sizes decrease in k at key ({j}, {m}, {k})")
    return l


def validate_signature(sig, slots):
    """Check the full signature contract over every (slot, k) key;
    raises CodingError naming the failing clause."""
    seen = {}
    for j, m in slots:
        n = len(m)
        for k in range(sum(m) + 1):
            l = block_sizes(sig, j, m, k, n)
            if l in seen and seen[l] != (j, m, k):
                raise CodingError(
                    f"signature collision: keys {seen[l]} and ({j}, {m}, {k}) both map to {l}"
                )
            seen[l] = (j, m, k)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class CodingConfig:
    """Ground size, arity, signature, and the admissible (j, m) slots."""

    a: int
    n: int
    signature: SizeSignature
    slots: tuple  # ordered ((j, m), ...)

    def __post_init__(self):
        if not self.slots:
            raise CodingError("at least one slot required")
        if len(set(self.slots)) != len(self.slots):
            raise CodingError("duplicate slots")
        for j, m in self.slots:
            if j < 0:
                raise CodingError(f"negative slot index {j}")
            if len(m) != self.n or any(x < 0 for x in m):
                raise CodingError(f"profile {m} invalid for arity {self.n}")
            g = self.g(j, m)
            if self.a < sum(g):
                raise CodingError(
                    f"ground size {self.a} below sum{g} needed by slot ({j}, {m})"
                )
        validate_signature(self.signature, self.slots)

    def f(self, j, m, k):
        return block_sizes(self.signature, j, tuple(m), k, self.n)

    def g(self, j, m):
        m = tuple(m)
        return block_sizes(self.signature, j, m, sum(m), self.n)

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
        slots = tuple((j, tuple(m)) for j, m in d["slots"])
        sig = SizeSignature(
            d["signature"],
            slot_table=slots if d["signature"] == "compact" else (),
        )
        return cls(a=d["a"], n=d["n"], signature=sig, slots=slots)


def compact_config(a, n, slots):
    slots = tuple((j, tuple(m)) for j, m in slots)
    return CodingConfig(a, n, SizeSignature("compact", slots), slots)


# ---------------------------------------------------------------------------
# indexed families

def validate_indexed(X, cfg):
    """Canonicalize {j: family of arity-n tuples}; every member's profile
    must be an admissible slot profile for its index."""
    out = {}
    admissible = set(cfg.slots)
    for j, fam in X.items():
        fam = frozenset(fam)
        for t in fam:
            check_disjoint_tuple(t, cfg.a)
            if len(t) != cfg.n:
                raise CodingError(f"member {t!r} does not have arity {cfg.n}")
            if (j, profile_of(t)) not in admissible:
                raise CodingError(
                    f"profile {profile_of(t)} of {t!r} not admissible at slot index {j}"
                )
        if fam:
            out[j] = fam
    return out


def slot_family(X, j, m):
    """Members of X(j) with profile m."""
    return frozenset(t for t in X.get(j, ()) if profile_of(t) == tuple(m))


def normalize_indexed(X):
    return {j: frozenset(fam) for j, fam in X.items() if fam}


# ---------------------------------------------------------------------------
# the code book

@dataclass
class CodeBook:
    """Symbolic code: (j, m, k) -> the alpha-closed family Y_{j,m,k}."""

    cfg: CodingConfig
    Y: dict

    def __eq__(self, other):
        return (
            isinstance(other, CodeBook)
            and self.cfg == other.cfg
            and self.Y == other.Y
        )

    def validate(self):
        """Re-check that every stored family is interior-closed."""
        for (j, m, k), fam in self.Y.items():
            g = self.cfg.g(j, m)
            if interior(self.cfg.a, m, g, fam) != fam:
                raise CodingError(f"book entry ({j}, {m}, {k}) is not interior-closed")

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

    Per slot, iterates the boundary operator at the top profile g and
    stores the interior of each iterate.  Verifies on the fly that the
    boundary chain dies within sum(m)+1 steps and that the nesting
    identity D_k = Y_k \\ D_{k+1} holds; either failure means the ground
    set is too small for this family and raises CodingError.
    """
    X = validate_indexed(X, cfg)
    book = {}
    for j, m in cfg.slots:
        g = cfg.g(j, m)
        K = sum(m)
        D = slot_family(X, j, m)
        chain = [D]
        for _ in range(K + 1):
            chain.append(boundary(cfg.a, m, g, chain[-1]))
        if chain[K + 1]:
            raise CodingError(
                f"boundary chain for slot ({j}, {m}) does not vanish at step {K + 1}; "
                f"ground size {cfg.a} too small for this family"
            )
        for k in range(K + 1):
            Yk = chain[k] | chain[k + 1]  # interior = the set plus its boundary
            if chain[k] != Yk - chain[k + 1]:
                raise CodingError(
                    f"nesting identity fails at slot ({j}, {m}), level {k}"
                )
            book[(j, m, k)] = Yk
    return CodeBook(cfg, book)


# ---------------------------------------------------------------------------
# materialized partitions

def materialize(book):
    """The partition set carried by a book: for every key, the partitions
    induced by the l-extensions of the stored family.

    Returns (partitions, None) or (None, count) when the number of
    candidate extension tuples exceeds EXTENSION_BUDGET.
    """
    cfg = book.cfg
    total = 0
    for (j, m, k), fam in book.Y.items():
        total += len(fam) * count_extensions(cfg.a, m, cfg.f(j, m, k))
    if total > EXTENSION_BUDGET:
        return None, total
    out = set()
    for (j, m, k), fam in sorted(book.Y.items()):
        out.update(partition_from_ns(cfg.a, q)
                   for q in up(cfg.a, m, cfg.f(j, m, k), fam))
    return frozenset(out), None


def extract_slice(H, cfg, j, m, k):
    """The l-profile tuples of key (j, m, k) present in a partition set:
    partitions whose non-singleton block sizes match l as a set, with the
    component order recovered by ascending block size."""
    l = cfg.f(j, m, k)
    want = sorted(l)
    out = []
    for P in H:
        ns = ns_blocks(P)
        if sorted(len(b) for b in ns) != want:
            continue
        by_size = sorted(ns, key=len)
        out.append(tuple(by_size[want.index(li)] for li in l))
    return frozenset(out)


def pullback_Y(a, m, Z, l):
    """The family of m-profile tuples all of whose l-extensions lie in Z,
    a set of l-profile tuples (`operators.down`).

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


def decode(source, cfg=None, check=True):
    """Recover the indexed family from a code book or a partition set.

    From partitions, each key's slice is extracted and pulled back to its
    Y-family first.  Then, per slot, the alternating difference
    Y_0 \\ (Y_1 \\ (... \\ Y_K)) rebuilds the slot family, and slot
    families with the same index are unioned.

    With check=True every Y obtained by pullback is verified to be
    interior-closed at the slot's top profile; failure raises DecodeError
    naming the slice (it means the configuration is too small to be
    faithful for this input).
    """
    if isinstance(source, CodeBook):
        if cfg is None:
            cfg = source.cfg
        elif cfg != source.cfg:
            raise CodingError("book was built over a different configuration")
        Y = source.Y
    else:
        if cfg is None:
            raise CodingError("decoding a partition set needs the configuration")
        Y = {}
        for j, m, k in cfg.keys():
            Z = extract_slice(source, cfg, j, m, k)
            Yk = pullback_Y(cfg.a, m, Z, cfg.f(j, m, k))
            if check and interior(cfg.a, m, cfg.g(j, m), Yk) != Yk:
                raise DecodeError(
                    f"slice ({j}, {m}, {k}) is not interior-closed after pullback; "
                    "the configuration is too small to decode this input faithfully"
                )
            Y[(j, m, k)] = Yk
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
# sequence coder (sets of fixed-arity sequences of finite subsets)

@dataclass
class SeqCode:
    """Per-arity code books plus the marker for the empty sequence.

    The empty sequence has no tuple image; its presence is recorded as a
    reserved marker (read as: the code contains the all-singleton
    partition, which no real key can produce)."""

    books: dict  # arity -> CodeBook
    has_empty_seq: bool = False


def encode_seq_family(W, cfgs):
    """Code a set of sequences of subsets, grouped by arity.

    Each arity-n slice maps through the subset-sequence-to-disjoint-tuple
    bijection into slot index 0 of the arity-(2^n - 1) coder given by
    cfgs[n].  Distinct arities use distinct configurations, so the union
    of the per-arity codes stays injective.
    """
    by_arity = {}
    has_empty = False
    for w in W:
        w = tuple(tuple(sorted(s)) for s in w)
        if len(w) == 0:
            has_empty = True
            continue
        by_arity.setdefault(len(w), set()).add(w)
    books = {}
    for arity, ws in sorted(by_arity.items()):
        if arity not in cfgs:
            raise CodingError(f"no configuration for arity {arity}")
        cfg = cfgs[arity]
        if cfg.n != (1 << arity) - 1:
            raise CodingError(
                f"arity-{arity} sequences need a coder of arity {(1 << arity) - 1}"
            )
        fam = frozenset(fin_to_disjoint(w) for w in ws)
        books[arity] = encode({0: fam}, cfg)
    return SeqCode(books=books, has_empty_seq=has_empty)


def decode_seq_family(code, check=True):
    """Invert encode_seq_family."""
    out = set()
    if code.has_empty_seq:
        out.add(())
    for arity, book in code.books.items():
        X = decode(book, check=check)
        for q in X.get(0, ()):
            out.add(disjoint_to_fin(q, arity))
    return frozenset(out)
