import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from finpart import coding, operators
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
from finpart.core import enum_disjoint_tuples
from finpart.operators import fits_dense, indexed_tuples, interior

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
    # the config answers its own keys only
    with pytest.raises(CodingError, match=r"\(0, \(1,\), 2\) is not a key"):
        cfg12.f(0, (1,), 2)
    with pytest.raises(CodingError, match=r"\(1, \(1,\), 0\) is not a key"):
        cfg12.f(1, (1,), 0)


def test_block_sizes_contract_errors():
    sig = SizeSignature("prime")
    with pytest.raises(CodingError, match="k="):
        block_sizes(sig, 0, (1,), 2, 1)
    with pytest.raises(CodingError, match="arity"):
        block_sizes(sig, 0, (1,), 0, 2)
    # the compact rule reads the slots it is given
    with pytest.raises(CodingError, match="not in the signature table"):
        block_sizes(SizeSignature("compact"), 0, (1,), 0, 1)


def test_config_rejects_small_ground():
    with pytest.raises(CodingError, match="ground size"):
        compact_config(4, 1, [(0, (5,))])


def test_signature_holds_no_slots_of_its_own():
    # a signature's one field is its kind, the one thing to_json writes,
    # so every config reloads equal
    with pytest.raises(TypeError):
        SizeSignature("prime", ((5, (3,)),))
    for cfg in [CodingConfig(100, 1, SizeSignature("prime"), ((0, (1,)),)),
                compact_config(12, 1, [(0, (1,))])]:
        assert CodingConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("slots", [[(0, (1,))], ((0, [1]),)], ids=["list", "list-profile"])
def test_config_stores_its_slots_as_tuples(slots):
    cfg = CodingConfig(12, 1, SizeSignature("compact"), slots)
    assert cfg == compact_config(12, 1, [(0, (1,))])
    X = {0: frozenset({((0,),), ((3,),)})}
    book = encode(X, cfg)
    assert decode(book) == decode(materialize(book)[0], cfg) == X


def test_config_json_roundtrip(cfg12):
    again = CodingConfig.from_json(cfg12.to_json())
    assert again == cfg12
    # each shipped config is the compact config of its slots, written as is
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = load_config(path.name)
        assert cfg == compact_config(cfg.a, cfg.n, cfg.slots), path.name
        assert cfg.to_json() + "\n" == path.read_text(), path.name


# --- encode / materialize / decode on the 12-element config ---------------

def test_encode_singleton_family(cfg12):
    X = {0: frozenset({((0,),)})}
    book = encode(X, cfg12)
    assert book.Y[(0, (1,), 0)] == {((0,),)}
    assert book.Y[(0, (1,), 1)] == frozenset()
    for (j, m, _), fam in book.Y.items():
        assert interior(12, m, cfg12.g(j, m), fam) == fam
    H, over = materialize(book)
    assert over is None
    assert len(H) == 55
    # each element is the block set of its partition: one 3-block holding 0
    assert all(len(P) == 1 and len(B) == 3 and 0 in B for P in H for B in P)


def test_materialize_refuses_a_key_outside_the_config():
    # the prime signature gives key (1, (0,), 0) the sizes (6,): its 28
    # extensions would land in H beside the config key's 28, and decode
    # would drop them without a word
    cfg = CodingConfig(8, 1, SizeSignature("prime"), ((0, (0,)),))
    fam = frozenset({((),)})
    assert len(materialize(CodeBook(cfg, {(0, (0,), 0): fam}))[0]) == 28
    with pytest.raises(CodingError, match=r"book keys \[\(1, \(0,\), 0\)\]"):
        materialize(CodeBook(cfg, {(0, (0,), 0): fam, (1, (0,), 0): fam}))


def test_materialize_budget_counts_every_extension(monkeypatch, cfg12):
    book = encode({0: frozenset({((0,),), ((1,),), ((2,),)})}, cfg12)
    total = sum(len(fam) * operators.count_extensions(12, m, cfg12.f(j, m, k))
                for (j, m, k), fam in book.Y.items())
    H, _ = materialize(book)
    assert total >= len(H) > 0  # extensions of different members may meet
    monkeypatch.setattr(coding, "EXTENSION_BUDGET", total)
    assert materialize(book) == (H, None)
    monkeypatch.setattr(coding, "EXTENSION_BUDGET", total - 1)
    assert materialize(book) == (None, total)


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


def test_decode_orders_components_by_size():
    # n = 2: the blocks of each element come back as l-tuples, (2, 3) in order
    cfg = compact_config(6, 2, [(0, (0, 0))])
    X = {0: frozenset({((), ())})}
    H, _ = materialize(encode(X, cfg))
    assert extract_slice(H, cfg, 0, (0, 0), 0) == \
        frozenset(enum_disjoint_tuples(6, (2, 3)))
    assert decode(H, cfg) == X


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


def test_dense_keys_share_block_sets(cfg12):
    # two materializations of a dense key hand out the same objects
    H1, _ = materialize(encode({0: frozenset({((0,),)})}, cfg12))
    H2, _ = materialize(encode({0: frozenset({((0,),), ((1,),)})}, cfg12))
    shared = {id(P) for P in H2}
    assert H1 < H2
    assert all(id(P) in shared for P in H1)


def test_decode_of_equal_fresh_block_sets(cfg12):
    # equal but not identical elements take the same path as shared ones
    X = {0: frozenset({((0,),), ((4,),), ((7,),)})}
    H, _ = materialize(encode(X, cfg12))
    fresh = frozenset(frozenset(tuple(list(b)) for b in P) for P in H)
    assert fresh == H
    assert not {id(P) for P in fresh} & {id(P) for P in H}
    assert decode(fresh, cfg12) == decode(H, cfg12) == X
    for k in (0, 1):
        assert extract_slice(fresh, cfg12, 0, (1,), k) == \
            extract_slice(H, cfg12, 0, (1,), k)


@pytest.mark.parametrize("bad", [
    pytest.param((2, 1, 0), id="unsorted"),
    pytest.param((10, 11, 12), id="out-of-range"),
])
def test_decode_rejects_malformed_dense_block(cfg12, bad):
    # a 3-block sits in the dense key (0, (1,), 0) but matches no l-tuple
    assert fits_dense(12, (1,), (3,))
    H, _ = materialize(encode({0: frozenset({((0,),)})}, cfg12))
    with pytest.raises(CodingError):
        decode(H | {frozenset({bad})}, cfg12)


def test_decode_rejects_a_float_in_a_dense_miss(cfg12):
    # a full partition is a miss; its 3-block equals (0, 1, 2) in the dense
    # key (0, (1,), 0) only by equality, so the index lookup refuses it
    H, _ = materialize(encode({0: frozenset({((0,),)})}, cfg12))
    with pytest.raises(CodingError, match=r"not a canonical subset: \(0, 1\.0, 2\)"):
        decode(H | {frozenset({(0, 1.0, 2), (3,)})}, cfg12)


def test_materialize_refuses_a_bool_in_a_dense_key(cfg12):
    book = encode({0: frozenset({((0,),)})}, cfg12)
    assert coding._plan(cfg12).keys[0, (1,), 0].sp is not None
    book.Y[0, (1,), 0] = frozenset({((True,),)})
    with pytest.raises(ValueError, match=r"not a canonical subset: \(True,\)"):
        materialize(book)


def test_sparse_key_config_decodes():
    # at a = 60 both keys, l = (3,) and (5,), run sparse: every element of
    # H is bucketed by block sizes, in a second pass, which an iterator
    # over H gets too
    cfg = compact_config(60, 1, [(0, (1,))])
    assert not fits_dense(60, (1,), (3,)) and not fits_dense(60, (1,), (5,))
    X = {0: frozenset({((0,),), ((1,),)})}
    H, _ = materialize(encode(X, cfg))
    assert len(H) == 2 * 1711 - 58
    assert extract_slice(H, cfg, 0, (1,), 0) == frozenset(
        q for q in enum_disjoint_tuples(60, (3,)) if {0, 1} & set(q[0]))
    assert decode(H, cfg) == decode(iter(H), cfg) == X


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


def test_indexed_tuples_are_sorted_on_every_shipped_profile():
    # bit i of a family mask selects the i-th tuple in enumeration order,
    # which the suites and the coder's witnesses read as sorted order
    for name, dense in DENSE_SPACES.items():
        cfg = load_config(name)
        profiles = {m for _, m in cfg.slots} | {p for ml in dense for p in ml}
        for p in profiles:
            tuples, index = indexed_tuples(cfg.a, p)
            assert tuples == tuple(sorted(enum_disjoint_tuples(cfg.a, p))), (name, p)
            assert all(index[t] == i for i, t in enumerate(tuples))


def test_config_checks_each_key_once(monkeypatch):
    calls = Counter()

    def counting(sig, j, m, k, n, slots):
        calls[j, m, k] += 1
        return block_sizes(sig, j, m, k, n, slots)

    monkeypatch.setattr(coding, "block_sizes", counting)
    cfg = load_config("seq_arity1_a12.json")
    assert calls == Counter(cfg.keys())


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


@pytest.mark.parametrize("name, j, member, message", [
    ("pair_slot_a24.json", 0, ((0,), (0,)), "components not pairwise disjoint"),
    ("two_slot_a28.json", 1, ((3, 3),), "not a canonical subset"),
    ("two_slot_a28.json", 1, ((-1, 3),), "element out of range"),
    ("two_slot_a28.json", 1, ((3, 28),), "element out of range"),
], ids=["overlap", "repeat", "negative", "out-of-range"])
def test_sparse_encode_rejects_bad_members(name, j, member, message):
    # both configs run sparse, so encode's pass is the only member check
    with pytest.raises(ValueError, match=message):
        encode({j: frozenset({member})}, load_config(name))


def counting_calls(monkeypatch, names):
    """Count the calls of each (module, name) pair; returns the Counter."""
    calls = Counter()
    for module, name in names:
        fn = getattr(module, name)

        def wrapped(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.mark.parametrize("name", sorted(DENSE_SPACES))
def test_encode_reads_list_components_as_tuples(name):
    # dense slots look members up by the member check's return, sparse ones
    # keep that return: list components, a list of them and a list of
    # tuples all give the book of the tuple members
    cfg = load_config(name)
    X = {j: list(itertools.islice(enum_disjoint_tuples(cfg.a, m), 2))
         for j, m in cfg.slots}
    for form in (lambda t: tuple(map(list, t)), lambda t: list(map(list, t)),
                 list):
        assert (encode({j: list(map(form, fam)) for j, fam in X.items()}, cfg)
                == encode(X, cfg))


def test_encode_checks_each_member_once(monkeypatch):
    # both slots of two_slot_a28 run sparse: encode's pass profiles and
    # fully checks each member once, and the chains take them as checked
    cfg = load_config("two_slot_a28.json")
    X = {0: frozenset({((0,),), ((5,),)}), 1: frozenset({((1, 2),)})}
    calls = counting_calls(monkeypatch, [(coding, "check_disjoint_tuple"),
                                         (coding, "profile_of")])
    in_chain = counting_calls(monkeypatch, [(operators, "check_disjoint_tuple"),
                                            (operators, "_members")])
    encode(X, cfg)
    assert calls == {"check_disjoint_tuple": 3, "profile_of": 3}
    assert in_chain == {}


@pytest.mark.parametrize("name", ["single_slot_a12.json", "two_slot_a28.json"])
def test_encode_reads_its_slot_plan(monkeypatch, name):
    # after a config's first encode, each slot's g and its route at
    # (a, m, g), dense on single_slot_a12 and sparse on two_slot_a28, come
    # from the config's slot plan
    cfg = load_config(name)
    X = {0: frozenset({((0,),), ((5,),)})}
    book = encode(X, cfg)
    calls = counting_calls(monkeypatch, [(coding, "_route"), (CodingConfig, "g")])
    assert encode(X, cfg) == book
    assert calls == {}


def test_symbolic_round_trips_build_no_key_plan(monkeypatch):
    # a round trip through the book reads only the slot plan: no key plan,
    # so no block set of two_slot_a28's dense (1,) -> (4,) key, and no
    # profile space, as both configs' slots run sparse
    for plan in (coding._slot_plan, coding._plan, coding._block_sets):
        plan.cache_clear()
    built = counting_calls(monkeypatch, [(operators, "profile_space")])
    for name, X in [("two_slot_a28.json", {0: frozenset({((3,),)}),
                                           1: frozenset({((1, 2),)})}),
                    ("pair_slot_a24.json", {0: frozenset({((0,), (1,)),
                                                          ((2,), (3,))})})]:
        assert decode(encode(X, load_config(name))) == X
    assert coding._slot_plan.cache_info().currsize == 2
    assert coding._plan.cache_info().currsize == 0
    assert coding._block_sets.cache_info().currsize == 0
    assert built == {}


def test_dense_encode_checks_members_by_the_index_lookup(monkeypatch, cfg12):
    calls = counting_calls(monkeypatch, [(operators, "check_disjoint_tuple")])
    encode({0: frozenset({((0,),), ((5,),)})}, cfg12)
    assert calls == {}
    with pytest.raises(ValueError, match=r"element out of range \[0, 12\)"):
        encode({0: frozenset({((12,),)})}, cfg12)


def test_dense_encode_checks_members_before_merging(cfg12):
    # ((1.0,),) equals ((1,),): a set of the slot's members would drop it
    with pytest.raises(ValueError, match=r"not a canonical subset: \(1\.0,\)"):
        encode({0: [((1,),), ((1.0,),)]}, cfg12)


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


def test_decode_configuration_errors(cfg12):
    book = encode({0: frozenset({((0,),)})}, cfg12)
    with pytest.raises(CodingError, match="different configuration"):
        decode(book, compact_config(13, 1, [(0, (1,))]))
    H, _ = materialize(book)
    with pytest.raises(CodingError, match="needs the configuration"):
        decode(H)


# --- sequence coder -------------------------------------------------------

@pytest.fixture(scope="module")
def seq1():
    return load_config("seq_arity1_a12.json")


@pytest.fixture(scope="module")
def seq2():
    return load_config("seq_arity2_a40.json")


def _seq_failures(cfg, Ws):
    """The sets of sequences among Ws that do not round-trip."""
    out = []
    for W in Ws:
        try:
            ok = decode_seq_family(encode_seq_family(W, cfg)) == W
        except CodingError:
            ok = False
        if not ok:
            out.append(W)
    return out


def test_seq_single_empty_set(seq1):
    W = frozenset({((),)})
    book = encode_seq_family(W, seq1)
    assert book.Y[(0, (0,), 0)] == {((),)}
    assert decode_seq_family(book) == W


def test_seq_empty_family_roundtrip(seq1, seq2):
    for cfg in (seq1, seq2):
        book = encode_seq_family(frozenset(), cfg)
        assert isinstance(book, CodeBook) and not any(book.Y.values())
        assert decode_seq_family(book) == frozenset()


def test_seq_rejects_wrong_length(seq1, seq2):
    with pytest.raises(CodingError, match=r"sequence \(\) does not have length 1"):
        encode_seq_family(frozenset({()}), seq1)
    with pytest.raises(CodingError, match="does not have length 1"):
        encode_seq_family(frozenset({((0,), (1,))}), seq1)
    with pytest.raises(CodingError, match="does not have length 2"):
        encode_seq_family(frozenset({((0,),)}), seq2)


def test_seq_rejects_arity_not_two_power_minus_one():
    with pytest.raises(CodingError, match="arity 2 is not 2"):
        encode_seq_family(frozenset(), load_config("pair_slot_a24.json"))


def test_seq_distinct_inputs_distinct_codes(seq2):
    ca = encode_seq_family(frozenset({((0,), (1,))}), seq2)
    cb = encode_seq_family(frozenset({((0,), (2,))}), seq2)
    assert ca.Y != cb.Y


# slots (1,) and (0,) of seq_arity1_a12: the 12 singleton sequences and ((),)
SEQS_N1 = [((x,),) for x in range(12)] + [((),)]


def test_seq_n1_exhaustive_sweep(seq1):
    Ws = [frozenset(itertools.compress(SEQS_N1, (bits >> i & 1 for i in range(13))))
          for bits in range(1 << 13)]
    books = set()
    for W in Ws:
        book = encode_seq_family(W, seq1)
        assert decode_seq_family(book) == W
        books.add(frozenset(book.Y.items()))
    assert len(books) == 1 << 13  # injective by count


def test_seq_planted_faults_are_caught(seq1, seq2, monkeypatch):
    real = coding.fin_to_disjoint
    monkeypatch.setattr(coding, "fin_to_disjoint",
                        lambda s: tuple(c[1:] for c in real(s)))
    singles = [frozenset({w}) for w in SEQS_N1]
    assert _seq_failures(seq1, singles) == singles[:12]
    monkeypatch.setattr(coding, "fin_to_disjoint",
                        lambda s: (lambda q: (q[1], q[0], *q[2:]))(real(s)))
    W = frozenset({((0,), (1,))})
    assert _seq_failures(seq2, [W]) == [W]
