"""Batch command-line front-end.

Verbs:
  verify {fact00,nilpotency,bijection,ramsey,coding,symmetry}  -- property suites
  counts                                                       -- counting tables
  ramsey {check,search,bound}                                  -- direct Ramsey queries
  code {encode,decode,demo}                                    -- the partition coder
  symmetry {orbits,support,fiber,chain}                        -- symmetry toolkit

All randomized paths are seeded; reports are deterministic JSON (CSV for
tables via --format csv).  Exit codes: 0 pass, 1 violation/infeasible,
2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

from . import coding, core, operators, ramsey, symmetry
from .report import UsageError, rows_to_csv
from .suites import (
    _SPACES,
    emit_counts,
    suite_bijection,
    suite_coding,
    suite_fact00,
    suite_nilpotency,
    suite_ramsey,
    suite_symmetry,
)


# ---------------------------------------------------------------------------
# coding verbs

def _load_json(path, what, parse):
    """parse() of the text of the file at path.  An unreadable file or
    malformed content, a key given twice included, is a usage error; JSON
    of the wrong shape shows up as TypeError or AttributeError in the
    parsers."""
    try:
        with open(path) as f:
            return parse(f.read())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise UsageError(f"bad {what} {path}: {type(e).__name__}: {e}")


def _load_config(path):
    return _load_json(path, "config", coding.CodingConfig.from_json)


def _load_family(path, a):
    """{j: frozenset of tuples} from the JSON file, without empty families;
    each slot must hold a list of members, and each member goes to
    `core.check_disjoint_tuple` as written, before a set could hash it or
    merge 1.0 into 1."""
    fams = _load_json(path, "family", lambda text: coding.keyed(
        coding.load_json(text).items(), int, "slot"))
    for j, fam in fams.items():
        if not isinstance(fam, list):
            raise UsageError(f"bad family {path}: slot {j} is not a list of members")
    return coding.normalize_indexed({
        j: {core.check_disjoint_tuple(t, a) for t in fam}
        for j, fam in fams.items()})


def demo_coding(cfg, X=None):
    if X is None:
        j, m = cfg.slots[0]
        first = next(iter(core.enum_disjoint_tuples(cfg.a, m)))
        X = {j: frozenset({first})}
    book = coding.encode(X, cfg)  # before any output: it checks X
    print(f"ground size {cfg.a}, arity {cfg.n}, slots {list(cfg.slots)}")
    print("input X:")
    for j, fam in sorted(X.items()):
        print(f"  {j}: {sorted(fam)}")
    print("code book:")
    for key, fam in sorted(book.Y.items()):
        print(f"  {key}: {sorted(fam)}")
    H, over = coding.materialize(book)
    if H is None:
        print(f"materialization infeasible ({over} candidate tuples); "
              "decoding symbolically")
        dec = coding.decode(book)
    else:
        print(f"|H| = {len(H)} partitions")
        # one pass over H, for every key's count and for the decoder
        by_l = coding.slices(H, cfg)
        for key in sorted(book.Y):
            print(f"  slice {key}: {by_l.count(cfg.f(*key))} tuples")
        dec = coding.decode(coding._book_of_slices(by_l, cfg))
    verdict = coding.normalize_indexed(dec) == coding.normalize_indexed(X)
    print("decoded:")
    for j, fam in sorted(dec.items()):
        print(f"  {j}: {sorted(fam)}")
    print(f"round trip: {'pass' if verdict else 'FAIL'}")
    return verdict


# ---------------------------------------------------------------------------
# command handlers: each reads the parsed options and returns the exit code

def _verify(suite, args):
    """Run a suite on the parsed options and print its report, with the
    wall time outside the digest."""
    t0 = time.monotonic()
    rep = suite(args)
    rep.wall_time_s = time.monotonic() - t0
    print(rep.to_json())
    return rep.exit_code


def _profiles(o):
    # "append" would extend a default list, so the defaults are applied here
    return tuple(o.m or (1,)), tuple(o.l or (2,))


def _counts(args):
    rows = emit_counts(args.space, args.a_max, args.n_max)
    header = ("a", "n_or_profile", "formula", "enumerated", "match")
    if args.format == "csv":
        print(rows_to_csv(rows, header), end="")
    else:
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=2))
    return 0 if all(r[-1] is True for r in rows) else 1


def _query(args):
    return ramsey.RamseyQuery(tuple(args.j), args.c, args.r)


def _ramsey_check(args):
    res = ramsey.has_property(tuple(args.sizes), _query(args),
                              max_colorings=args.max_colorings)
    doc = {"holds": res.holds, "searched": res.searched,
           "pruned": res.pruned, "note": res.note}
    if res.counterexample is not None:
        doc["counterexample"] = [[[list(c) for c in pt], d] for pt, d
                                 in sorted(res.counterexample.items())]
    print(json.dumps(doc, indent=2))
    return 0


def _ramsey_search(args):
    res = ramsey.search_min_N(_query(args), args.cap,
                              max_colorings=args.max_colorings)
    doc = {"value": res.value, "cap": res.cap,
           "counterexample_N": res.counterexample_N,
           "searched": res.searched_total,
           "pruned": res.pruned_total}
    print(json.dumps(doc, indent=2))
    return 0


def _ramsey_bound(args):
    bound = ramsey.upper_bound_R(_query(args))
    # ramsey._BOUND_BITS keeps the digits bounded; the interpreter's
    # int-to-str limit is lifted for this one conversion only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps({"upper_bound": bound}, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    return 0


def _code_encode(args):
    cfg = _load_config(args.config)
    print(coding.encode(_load_family(args.family, cfg.a), cfg).to_json())
    return 0


def _code_decode(args):
    cfg = _load_config(args.config)
    book = _load_json(args.book, "book", coding.CodeBook.from_json)
    if book.cfg != cfg:
        raise UsageError("book does not match the given config")
    X = coding.decode(book)
    # decode . encode = id, so a book is a code iff it re-encodes
    try:
        again = coding.encode(X, cfg)
    except ValueError as e:
        raise UsageError(f"book is not the code of any family: {e}") from e
    if again != book:
        raise UsageError("book is not the code of any family: its "
                         "decoded family encodes to a different book")
    print(json.dumps(
        {str(j): sorted(fam) for j, fam in sorted(X.items())},
        indent=2,
    ))
    return 0


def _code_demo(args):
    cfg = _load_config(args.config)
    X = _load_family(args.family, cfg.a) if args.family else None
    return 0 if demo_coding(cfg, X) else 1


def _csl(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def _parse_blocks(text, a):
    """The partition of range(a) into the given blocks and singletons;
    ValueError on an empty, overlapping or out-of-range block."""
    blocks = [_csl(b) for b in text.split("|")] if text else []
    used = {x for b in blocks for x in b}
    blocks += [(x,) for x in range(a) if x not in used]
    return core.canonicalize_partition(a, blocks)


def _parse_elements(text, a):
    E = _csl(text)
    for x in E:
        if not 0 <= x < a:
            raise UsageError(f"--E element {x} out of range [0, {a})")
        if E.count(x) > 1:
            raise UsageError(f"--E element {x} is repeated")
    return E


def _symmetry_orbits(args):
    B = _csl(args.B) if args.B else tuple(range(args.n + 2))
    s = _csl(args.s) if args.s else B[:-1]
    op = symmetry.even_odd_orbits(B, s)
    print(json.dumps({"xi": sorted(map(list, op.xi)),
                      "theta": sorted(map(list, op.theta))}, indent=2))
    return 0


def _symmetry_support(args):
    P = _parse_blocks(args.blocks, args.a)
    E = _parse_elements(args.E, args.a)
    print(json.dumps(
        {"is_support": symmetry.is_support(E, frozenset(P), args.a)}
    ))
    return 0


def _symmetry_fiber(args):
    P = _parse_blocks(args.blocks, args.a)
    E = _parse_elements(args.E, args.a)
    fib = symmetry.fiber_of(P, E, args.n, args.a)
    bound = symmetry.fiber_bound(args.n, E)
    print(json.dumps({
        "fiber": sorted(fib),
        "size": len(fib), "bound": bound,
        "within_bound": len(fib) <= bound,
    }, indent=2))
    return 0 if len(fib) <= bound else 1


def _symmetry_chain(args):
    E = _parse_elements(args.E, args.a)
    L = symmetry.longest_chain_B_n(args.a, args.n, E)
    bound = symmetry.chain_bound(args.n, E)
    print(json.dumps({"longest_chain": L, "bound": bound,
                      "within_bound": L <= bound}))
    return 0 if L <= bound else 1


# ---------------------------------------------------------------------------
# the command table: each command accepts exactly the options it reads

# Every option any command reads.  A command lists an option as "name!"
# to make it required.
_OPTIONS = {
    "a": {"type": int, "default": 6},
    "n": {"type": int, "default": 1},
    "m": {"type": int, "action": "append"},
    "l": {"type": int, "action": "append"},
    "mode": {"choices": ("exhaustive", "random"), "default": "exhaustive"},
    "samples": {"type": int, "default": 1000},
    "seed": {"type": int, "default": 0},
    "config": {},
    "family": {},
    "book": {},
    "space": {"choices": tuple(_SPACES), "default": "bn"},
    "a-max": {"type": int, "default": 6},
    "n-max": {"type": int, "default": 2},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "j": {"type": int, "action": "append"},
    "c": {"type": int},
    "r": {"type": int},
    "sizes": {"type": int, "action": "append"},
    "cap": {"type": int},
    "max-colorings": {
        "type": int, "default": ramsey.DEFAULT_MAX_COLORINGS,
        "help": "budget of the Ramsey search, in search nodes (partial "
                "colorings), one pool for all the searches of one call; "
                "grids whose witness masks exceed it are refused before "
                "the search",
    },
    "B": {"help": "comma-separated base elements"},
    "E": {"default": "", "help": "comma-separated elements"},
    "s": {"help": "comma-separated seed sequence"},
    "blocks": {"help": "partition blocks, e.g. '0,1|2,3' (rest singletons)"},
}

# Least value of each count option, checked wherever a command reads it.
_MINIMUM = {"a": 0, "n": 0, "samples": 0, "a-max": 0, "n-max": 0,
            "max-colorings": 0}

_SWEEP = ("a", "m", "l", "mode", "samples", "seed")
_QUERY = ("j!", "c!", "r!")

# verb -> (help, action -> (the options the action reads, its handler)).
# counts, the one verb without actions, has the single action None.
_COMMANDS = {
    "verify": ("run a property suite", {
        "fact00": (_SWEEP, partial(_verify, lambda o: suite_fact00(
            o.a, *_profiles(o), o.mode, o.samples, o.seed, 1))),
        "nilpotency": (_SWEEP, partial(_verify, lambda o: suite_nilpotency(
            o.a, *_profiles(o), o.mode, o.samples, o.seed))),
        "bijection": (("a", "n"), partial(
            _verify, lambda o: suite_bijection(o.a, o.n))),
        "ramsey": (("max-colorings",), partial(
            _verify, lambda o: suite_ramsey(o.max_colorings))),
        "coding": (("config!", "mode", "samples", "seed"), partial(
            _verify, lambda o: suite_coding(
                _load_config(o.config), o.mode, o.samples, o.seed))),
        "symmetry": ((), partial(_verify, lambda o: suite_symmetry())),
    }),
    "counts": ("formula-vs-enumeration tables", {
        None: (("space", "a-max", "n-max", "format"), _counts),
    }),
    "ramsey": ("direct Ramsey queries", {
        "check": (_QUERY + ("sizes!", "max-colorings"), _ramsey_check),
        "search": (_QUERY + ("cap!", "max-colorings"), _ramsey_search),
        "bound": (_QUERY, _ramsey_bound),
    }),
    "code": ("partition coder", {
        "encode": (("config!", "family!"), _code_encode),
        "decode": (("config!", "book!"), _code_decode),
        "demo": (("config!", "family"), _code_demo),
    }),
    "symmetry": ("symmetry toolkit", {
        "orbits": (("n", "B", "s"), _symmetry_orbits),
        "support": (("a!", "blocks", "E"), _symmetry_support),
        "fiber": (("a!", "n", "blocks", "E"), _symmetry_fiber),
        "chain": (("a!", "n", "E"), _symmetry_chain),
    }),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="finpart",
        description="verification suites for finitary-partition constructions",
    )
    verbs = p.add_subparsers(dest="verb", required=True)
    for verb, (text, actions) in _COMMANDS.items():
        vp = verbs.add_parser(verb, help=text)
        sub = (None if None in actions
               else vp.add_subparsers(dest="action", required=True))
        for action, (names, handler) in actions.items():
            ap = vp if action is None else sub.add_parser(action)
            for name in names:
                ap.add_argument(f"--{name.rstrip('!')}", required=name.endswith("!"),
                                **_OPTIONS[name.rstrip("!")])
            ap.set_defaults(handler=handler)
    return p


def run(argv=None):
    args = build_parser().parse_args(argv)
    for name, least in _MINIMUM.items():
        if getattr(args, name.replace("-", "_"), least) < least:
            raise UsageError(f"--{name} must be at least {least}")
    return args.handler(args)


def main():
    try:
        code = run()
    except (ValueError, coding.DecodeError) as e:  # UsageError, CodingError too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except operators.BudgetExceeded as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
