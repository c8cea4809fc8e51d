import itertools
import random
from pathlib import Path

import pytest

from finpart.coding import (
    CodeBook,
    CodingConfig,
    CodingError,
    DecodeError,
    SizeSignature,
    block_sizes,
    compact_config,
    decode,
    decode_seq_family,
    encode,
    encode_seq_family,
    extract_slice,
    materialize,
    normalize_indexed,
    pullback_Y,
    validate_signature,
)
from finpart.core import enum_disjoint_tuples, ns_blocks
from finpart.operators import fits_dense

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_config(name):
    return CodingConfig.from_json((CONFIG_DIR / name).read_text())


@pytest.fixture(scope="module")
def cfg12():
    return load_config("single_slot_a12.json")


# --- signatures -----------------------------------------------------------

def test_prime_signature_values():
    sig = SizeSignature("prime")
    assert sig.sizes(0, (1,), 0) == (10,)
    assert sig.sizes(0, (1,), 1) == (70,)
    assert sig.sizes(0, (1, 1), 0) == (70, 140)


def test_prime_signature_contract():
    sig = SizeSignature("prime")
    for n in (1, 2):
        slots = [
            (j, m)
            for j in range(3)
            for m in itertools.product((1, 2), repeat=n)
        ]
        validate_signature(sig, slots)


def test_compact_signature_values(cfg12):
    assert cfg12.f(0, (1,), 0) == (3,)
    assert cfg12.f(0, (1,), 1) == (5,)
    assert cfg12.g(0, (1,)) == (5,)


def test_block_sizes_contract_errors():
    sig = SizeSignature("prime")
    with pytest.raises(CodingError, match="k="):
        block_sizes(sig, 0, (1,), 2, 1)
    with pytest.raises(CodingError, match="arity"):
        block_sizes(sig, 0, (1,), 0, 2)


def test_config_rejects_small_ground():
    with pytest.raises(CodingError, match="ground size"):
        compact_config(4, 1, [(0, (5,))])


def test_config_json_roundtrip(cfg12):
    again = CodingConfig.from_json(cfg12.to_json())
    assert again == cfg12


# --- encode / materialize / decode on the 12-element config ---------------

def test_encode_singleton_family(cfg12):
    X = {0: frozenset({((0,),)})}
    book = encode(X, cfg12)
    assert book.Y[(0, (1,), 0)] == {((0,),)}
    assert book.Y[(0, (1,), 1)] == frozenset()
    book.validate()
    H, over = materialize(book)
    assert over is None
    assert len(H) == 55
    assert all(len(ns_blocks(P)) == 1 for P in H)
    assert all(0 in P[0] or any(0 in b for b in ns_blocks(P)) for P in H)


def test_extract_and_pullback(cfg12):
    X = {0: frozenset({((0,),)})}
    H, _ = materialize(encode(X, cfg12))
    Z0 = extract_slice(H, cfg12, 0, (1,), 0)
    assert len(Z0) == 55
    assert extract_slice(H, cfg12, 0, (1,), 1) == frozenset()
    assert pullback_Y(12, (1,), Z0, (3,)) == {((0,),)}
    assert pullback_Y(12, (1,), frozenset(), (3,)) == frozenset()
    full = frozenset(enum_disjoint_tuples(12, (3,)))
    assert pullback_Y(12, (1,), full, (3,)) == frozenset(
        enum_disjoint_tuples(12, (1,))
    )


def test_pullback_rejects_small_ground():
    with pytest.raises(CodingError, match="vacuous"):
        pullback_Y(2, (1,), frozenset(), (3,))


@pytest.mark.parametrize("a, m, Z, l", [
    pytest.param(12, (1,), {((0, 1),)}, (3,), id="dense"),
    # off the dense route pullback counts
    pytest.param(28, (2,), {((0, 1, 2),)}, (10,), id="sparse"),
])
def test_pullback_rejects_wrong_profile(a, m, Z, l):
    assert fits_dense(a, m, l) == (a == 12)
    with pytest.raises(CodingError, match="profile"):
        pullback_Y(a, m, Z, l)


@pytest.mark.parametrize("a, m, l", [
    pytest.param(12, (1,), (3,), id="dense"),
    pytest.param(28, (2,), (10,), id="sparse"),
])
def test_pullback_rejects_malformed_tuple(a, m, l):
    descending = tuple(range(l[0] - 1, -1, -1))
    for bad in [(descending,), (tuple(range(a - l[0] + 1, a + 1)),)]:
        with pytest.raises(CodingError):
            pullback_Y(a, m, {bad}, l)


def test_complement_family_uses_alternating_formula(cfg12):
    singles = frozenset(enum_disjoint_tuples(12, (1,)))
    X = {0: singles - {((0,),)}}
    book = encode(X, cfg12)
    assert book.Y[(0, (1,), 0)] == singles
    assert book.Y[(0, (1,), 1)] == {((0,),)}
    H, _ = materialize(book)
    assert normalize_indexed(decode(H, cfg12)) == normalize_indexed(X)


def test_empty_family(cfg12):
    book = encode({}, cfg12)
    H, _ = materialize(book)
    assert H == frozenset()
    assert decode(book) == {}
    assert decode(frozenset(), cfg12) == {}


def test_roundtrip_sampled(cfg12):
    rng = random.Random(1)
    singles = sorted(enum_disjoint_tuples(12, (1,)))
    for _ in range(40):
        fam = frozenset(t for t in singles if rng.random() < 0.5)
        X = {0: fam} if fam else {}
        H, _ = materialize(encode(X, cfg12))
        assert normalize_indexed(decode(H, cfg12)) == normalize_indexed(X)
        assert normalize_indexed(decode(encode(X, cfg12))) == \
            normalize_indexed(X)


def test_book_json_roundtrip(cfg12):
    X = {0: frozenset({((0,),), ((3,),)})}
    book = encode(X, cfg12)
    again = CodeBook.from_json(book.to_json())
    assert again == book


def test_injectivity_on_samples(cfg12):
    rng = random.Random(2)
    singles = sorted(enum_disjoint_tuples(12, (1,)))
    seen = {}
    for _ in range(60):
        fam = frozenset(t for t in singles if rng.random() < 0.5)
        book = encode({0: fam} if fam else {}, cfg12)
        key = tuple(sorted((k, tuple(sorted(v))) for k, v in book.Y.items()))
        if key in seen:
            assert seen[key] == fam
        seen[key] = fam


# Route of every (m, l) space that a shipped config's keys reach, at f and
# at g; any space not listed runs sparse.
DENSE_SPACES = {
    "single_slot_a12.json": {((1,), (3,)), ((1,), (5,))},
    "seq_arity1_a12.json": {((1,), (3,)), ((1,), (5,)), ((0,), (7,))},
    "two_slot_a28.json": {((1,), (4,))},
    "pair_slot_a24.json": set(),
    "seq_arity2_a40.json": set(),
}


def test_config_route_table():
    assert sorted(DENSE_SPACES) == sorted(p.name for p in CONFIG_DIR.glob("*.json"))
    for name, dense in DENSE_SPACES.items():
        cfg = load_config(name)
        reached = set()
        for j, m, k in cfg.keys():
            for l in (cfg.f(j, m, k), cfg.g(j, m)):
                reached.add((m, l))
                assert fits_dense(cfg.a, m, l) == ((m, l) in dense), (name, m, l)
        assert dense <= reached, name


def test_two_slot_config_roundtrip():
    cfg = load_config("two_slot_a28.json")
    rng = random.Random(4)
    singles = sorted(enum_disjoint_tuples(28, (1,)))
    pairs = sorted(enum_disjoint_tuples(28, (2,)))
    for _ in range(10):
        X = {}
        f0 = frozenset(t for t in singles if rng.random() < 0.5)
        f1 = frozenset(rng.sample(pairs, rng.randrange(5)))
        if f0:
            X[0] = f0
        if f1:
            X[1] = f1
        book = encode(X, cfg)
        assert normalize_indexed(decode(book)) == normalize_indexed(X)


def test_pair_profile_config_roundtrip():
    cfg = load_config("pair_slot_a24.json")
    rng = random.Random(6)
    tuples = sorted(enum_disjoint_tuples(24, (1, 1)))
    for _ in range(10):
        fam = frozenset(rng.sample(tuples, rng.randrange(4)))
        X = {0: fam} if fam else {}
        book = encode(X, cfg)
        assert normalize_indexed(decode(book)) == normalize_indexed(X)


def test_encode_rejects_bad_members(cfg12):
    with pytest.raises(CodingError, match="admissible"):
        encode({0: frozenset({((0, 1),)})}, cfg12)
    with pytest.raises(ValueError):
        encode({0: frozenset({((0,), (1,))})}, cfg12)


def test_decode_reports_unfaithful_slice(cfg12):
    # hand-built partition set whose level-0 slice pulls back to the eight
    # singletons {0}..{7} — a family that is NOT interior-closed at the
    # top profile (5,), because only four elements stay uncovered, so any
    # 5-set meets the covered ones
    from finpart.core import partition_from_ns

    H = frozenset(
        partition_from_ns(12, [b])
        for b in itertools.combinations(range(12), 3)
        if set(b) & set(range(8))
    )
    with pytest.raises(DecodeError, match="slice"):
        decode(H, cfg12)


# --- sequence coder -------------------------------------------------------

@pytest.fixture(scope="module")
def seq_cfgs():
    return {1: load_config("seq_arity1_a12.json"),
            2: load_config("seq_arity2_a40.json")}


def test_seq_single_empty_set(seq_cfgs):
    W = frozenset({((),)})
    code = encode_seq_family(W, seq_cfgs)
    assert code.books[1].Y[(0, (0,), 0)] == {((),)}
    assert decode_seq_family(code) == W


def test_seq_empty_and_marker(seq_cfgs):
    assert decode_seq_family(encode_seq_family(frozenset(), seq_cfgs)) == \
        frozenset()
    W = frozenset({()})
    code = encode_seq_family(W, seq_cfgs)
    assert code.has_empty_seq
    assert decode_seq_family(code) == W


def test_seq_mixed_arity_roundtrip(seq_cfgs):
    rng = random.Random(8)
    for _ in range(10):
        W = set()
        if rng.random() < 0.5:
            W.add(())
        for _ in range(rng.randrange(3)):
            W.add(((rng.randrange(12),),))
        if rng.random() < 0.5:
            W.add(((),))
        for _ in range(rng.randrange(3)):
            x, y = rng.sample(range(40), 2)
            W.add(((x,), (y,)))
        W = frozenset(W)
        assert decode_seq_family(encode_seq_family(W, seq_cfgs)) == W


def test_seq_distinct_inputs_distinct_codes(seq_cfgs):
    ca = encode_seq_family(frozenset({((0,), (1,))}), seq_cfgs)
    cb = encode_seq_family(frozenset({((0,), (2,))}), seq_cfgs)
    assert ca.books[2].Y != cb.books[2].Y


def test_seq_rejects_unconfigured_arity(seq_cfgs):
    with pytest.raises(CodingError, match="arity"):
        encode_seq_family(frozenset({((0,), (1,), (2,))}), seq_cfgs)
