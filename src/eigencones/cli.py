"""Command-line front end.

Each command, and each ``verify`` target and table, is a parser of its own
that accepts exactly the options its code reads; any other flag, or an
abbreviated one, exits 2 before any work.  A group is one label: A, B, C
or D with a rank (``C3``), ``G2`` or ``F4``.

Every report is deterministic for a fixed configuration: JSON is emitted
with sorted keys, CSV with a fixed header row, and the table format mirrors
the digit-string word layout of the printed coset tables.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 resource cap.

Each command imports the layers it runs beyond rootsys and weyl in its own
body, so a process compiles and runs only those.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import (
    ConfigurationError,
    EigenconesError,
    ResourceCapError,
    UsageError,
    VerificationError,
)
from .rootsys import (
    SCHEMA_VERSION,
    Weight,
    build_embedding,
    build_root_system,
    root_system_to_json,
)
from .weyl import (
    ParabolicSpec,
    check_digit_words,
    coset_images,
    coset_table,
    word_str,
    word_to_element,
)

FORMATS = ("json", "csv", "table")
ROOTS_RANK_CAP = 10  # bounds the report: about r^2 roots of r + 1 coordinates each


# a rank of at most four digits: int() refuses a string of over 4,300
GROUP_LABEL = re.compile(r"[ABCD][1-9][0-9]{0,3}|G2|F4")
# Fraction() expands a decimal exponent: one over 4,300 is refused first
EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)$")


def _parse_group(group, words=True):
    """The root system of a --group label; the rank is checked first."""
    if not GROUP_LABEL.fullmatch(group):
        raise UsageError(f"unknown group {group!r}: A, B, C or D and a rank, G2 or F4")
    rank = int(group[1:])
    if words:
        check_digit_words(rank)
    elif rank > ROOTS_RANK_CAP:
        raise ResourceCapError(f"roots are built for rank <= {ROOTS_RANK_CAP}")
    return build_root_system(group if group in ("G2", "F4") else group[0], rank)


def _config(args):
    return {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "command") and v is not None
    }


def _emit(payload, fmt, csv_rows, table_lines):
    """Print the report; the parser offers only the formats a command has."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    elif fmt == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        for line in table_lines:
            print(line)


def _report(args, **payload):
    return {"schema_version": SCHEMA_VERSION, "config": _config(args), **payload}


# -- commands ----------------------------------------------------------------


def cmd_roots(args):
    R = _parse_group(args.group, words=False)
    doc = root_system_to_json(R)
    alphas = [" ".join(map(str, a)) for a in R.root_alpha]
    rows = [("index", "root")] + [(i + 1, a) for i, a in enumerate(alphas)]
    lines = [f"{R.label}: {len(alphas)} positive roots"] + ["  " + a for a in alphas]
    _emit(_report(args, root_system=doc), args.format, rows, lines)
    return 0


def cmd_cosets(args):
    R = _parse_group(args.group)
    P = ParabolicSpec(R, args.parabolic)
    rows = coset_table(R, P)
    csv_rows = [("word", "length", "dual")] + [
        (r["word"], r["length"], r["dual"]) for r in rows
    ]
    width = max(len(r["word"]) for r in rows)
    lines = [f"W^P for {R.label}/P{args.parabolic}", f"{'w':<{width}}  dual"] + [
        f"{r['word']:<{width}}  {r['dual']}" for r in rows
    ]
    _emit(
        _report(args, parabolic=args.parabolic, cosets=rows),
        args.format, csv_rows, lines,
    )
    return 0


def cmd_multiply(args):
    from .schubert import flag_variety

    R = _parse_group(args.group)
    F = flag_variety(R, args.parabolic)
    words = args.words.split(",")
    if len(words) != 2:
        raise UsageError("--words takes exactly two comma-separated words")
    u, v = (word_to_element(R, w.strip()) for w in words)
    if u not in F.index or v not in F.index:  # before the cache lookup
        raise UsageError(f"{F.label}: factors must be basis classes")
    key, table = (word_str(u), word_str(v)), {}
    if args.cache_dir:
        from .cache import JsonlStore

        store = JsonlStore(args.cache_dir)
        table = store.load_structure_constants(R.kind, R.rank, args.parabolic) or {}
    if key not in table:  # no store, or an absent, stale, torn or partial file
        prod = F.cup_product(u, v)
        table[key] = {word_str(w): int(c) for w, c in prod.coeffs.items()}
        if args.cache_dir:
            store.save_structure_constants(R.kind, R.rank, args.parabolic, table)
    coeffs = table[key]
    csv_rows = [("word", "coefficient")] + sorted(coeffs.items())
    lines = [f"{word_str(u)} * {word_str(v)} over {F.label}"] + [
        f"  {c} {w}" for w, c in sorted(coeffs.items())
    ]
    _emit(_report(args, product=dict(sorted(coeffs.items()))), args.format,
          csv_rows, lines)
    return 0


def cmd_inequalities(args):
    from .cones import generate_inequalities

    R = _parse_group(args.group)
    S = generate_inequalities(R, args.n, args.tier)
    doc = S.to_json()
    csv_rows = [("parabolic", "words", "normals", "scale", "multiplicity")] + [
        (
            q["parabolic"],
            " ".join(q["words"]),
            " ".join(":".join(str(x) for x in slot) for slot in q["normals"]),
            q["scale"],
            q["multiplicity"],
        )
        for q in doc["inequalities"]
    ]
    lines = [f"{R.label} n={args.n} tier={args.tier}: "
             f"{len(doc['inequalities'])} inequalities"] + [
        f"  P{q['parabolic']} [{' '.join(q['words'])}] "
        + " ".join(":".join(str(x) for x in slot) for slot in q["normals"])
        for q in doc["inequalities"]
    ]
    _emit(_report(args, system=doc), args.format, csv_rows, lines)
    return 0


def _parse_weights(R, n, text):
    chunks = text.split(";") if ";" in text else None
    if chunks is None:
        tokens = [t.strip() for t in text.split(",")]
        if R.rank == 1:
            chunks = tokens
        elif len(tokens) == n * R.rank:
            chunks = [
                ",".join(tokens[i * R.rank:(i + 1) * R.rank]) for i in range(n)
            ]
        else:
            raise UsageError("cannot split --weights into weight vectors")
    if len(chunks) != n:
        raise UsageError(f"expected {n} weights, got {len(chunks)}")
    out = []
    for chunk in chunks:
        tokens = [t.strip() for t in chunk.split(",")]
        try:
            if any(e and int(e[1]) > 4300 for e in map(EXPONENT.search, tokens)):
                raise UsageError(f"weight {chunk!r} has an exponent over 4,300 in magnitude")
            coords = tuple(map(Fraction, tokens))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"weight {chunk!r} is not a list of rationals") from None
        if len(coords) != R.rank:
            raise UsageError(f"weight {chunk!r} has {len(coords)} coordinates, "
                             f"rank is {R.rank}")
        out.append(Weight(R, coords))
    return tuple(out)


def cmd_membership(args):
    from .cones import generate_inequalities, membership

    R = _parse_group(args.group)
    lams = _parse_weights(R, args.n, args.weights)
    S = generate_inequalities(R, args.n, args.tier)
    member, violated = membership(lams, S)
    verdict = "in-cone" if member else "not-in-cone"
    payload = _report(
        args,
        member=member,
        verdict=verdict,
        violated=[
            {"parabolic": q.parabolic, "words": list(q.words)} for q in violated
        ],
    )
    _emit(payload, args.format, [("verdict",), (verdict,)], [verdict])
    return 0 if member else 1


def _verdict(args, report, detail=()):
    lines = [f"{args.target}: {'ok' if report['ok'] else 'FAILED'}", *detail]
    _emit(_report(args, report=report), args.format, None, lines)
    return 0 if report["ok"] else 1


def cmd_thm_main(args):
    from .cones import verify_subeigencone

    params = {k: v for k, v in (("r", args.r), ("s", args.s)) if v is not None}
    if args.r is not None:
        check_digit_words(args.r)  # the ambient rank, before any work
    report = verify_subeigencone(args.case, params, args.n)
    detail = []
    if report.get("mode") == "ambient-products":
        for pair in report["pairs"]:
            detail.append(f"  Q{pair['sub_parabolic']} -> P{pair['ambient_parabolic']}")
            for row in pair["tuples"]:
                detail.append(
                    f"    ({', '.join(row['words'])}) -> m = "
                    f"{row.get('ambient_multiplicity', '-')}"
                    + ("" if row["ok"] else "  FAILED")
                )
    return _verdict(args, report, detail)


def cmd_thm_proj(args):
    from .cones import verify_projection

    r = verify_projection(args.r, args.s, args.n, kind=args.group or "C")
    return _verdict(args, r, [
        f"  {r['kind']} r={r['r']} s={r['s']} n={r['n']} grid 0..{r['grid_top']}",
        f"  walls: ambient {r['ambient_inequalities']}, sub {r['sub_inequalities']}",
        f"  grid members {r['grid_members']}, violations {len(r['violations'])}",
        f"  section identity {r['section_identity']}, invariance checks {r['invariance_checks']}",
    ])


def _g2f4_tables():
    E = build_embedding("g2-in-f4")
    table1, table2, table3 = {}, {}, {}
    for q in (1, 2):
        P, rows = coset_images(E, q)
        table1[f"Q{q}"] = [{"w": word_str(w), "dual": word_str(d)} for w, d, _, _ in rows]
        table2[f"Q{q}"] = [{"w": word_str(w), "image": word_str(i)} for w, _, i, _ in rows]
        table3[f"P{P.excluded}"] = [
            {"w": word_str(i), "dual": word_str(d)} for _, _, i, d in rows
        ]
    return table1, table2, table3


def cmd_g2f4(args):
    t1, t2, t3 = _g2f4_tables()
    lines = []

    def block(title, data, cols):
        lines.append(title)
        for key, rows in data.items():
            lines.append(f"  [{key}]")
            width = max(len(r[cols[0]]) for r in rows)
            for r in rows:
                lines.append(f"    {r[cols[0]]:<{width}}  {r[cols[1]]}")

    block("G2 cosets and duals", t1, ("w", "dual"))
    block("G2 images in F4", t2, ("w", "image"))
    block("F4 images and duals", t3, ("w", "dual"))
    csv_rows = [("table", "column", "w", "value")]
    for name, data, col in (
        ("table1", t1, "dual"), ("table2", t2, "image"), ("table3", t3, "dual")
    ):
        for key, rows in data.items():
            csv_rows += [(name, key, r["w"], r[col]) for r in rows]
    _emit(_report(args, table1=t1, table2=t2, table3=t3), args.format, csv_rows, lines)
    return 0


def cmd_index(args):
    from .isogr import index_dictionary_rows
    from .schubert import flag_variety

    R = _parse_group(args.group)
    F = flag_variety(R, args.parabolic)
    rows = index_dictionary_rows(F)
    csv_rows = [("word", "index_set", "dim", "codim")] + [
        (r["word"], " ".join(str(i) for i in r["index_set"]), r["dim"], r["codim"])
        for r in rows
    ]
    lines = [f"index sets for {F.label}"] + [
        f"  {r['word']:<8} {{{', '.join(str(i) for i in r['index_set'])}}}"
        f"  dim {r['dim']}"
        for r in rows
    ]
    _emit(_report(args, rows=rows), args.format, csv_rows, lines)
    return 0


def cmd_orbits(args):
    if not 2 <= args.r <= 9:  # before any rows are built
        raise UsageError("tables orbits takes --r with 2 <= r <= 9")
    from .isogr import orbit_table_rows

    rows = orbit_table_rows(args.r)
    csv_rows = [("k", "r", "O1", "O2", "O2'", "O3")] + [
        (r["k"], r["r"], r["O1"], r["O2"], r["O2'"], r["O3"]) for r in rows
    ]
    lines = [f"orbit closure dimensions, r = {args.r}"] + [
        "  k={}: {} {} {} {}".format(r["k"], r["O1"], r["O2"], r["O2'"], r["O3"])
        for r in rows
    ]
    _emit(_report(args, rows=rows), args.format, csv_rows, lines)
    return 0


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Rejects a command line with one ``usage error:`` line and exit 2.

    Subparsers are made by the parser's own class, so they inherit it; no
    parser takes an abbreviated option.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="eigencones",
        description="Exact Schubert calculus and eigencone computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subs, name, func, help, *, group=False, parabolic=False, system=False,
             formats=FORMATS, default="json"):
        p = subs.add_parser(name, help=help)
        p.set_defaults(func=func)
        if group:
            p.add_argument("--group", required=True)
        p.add_argument("--format", choices=formats, default=default)
        if parabolic:
            p.add_argument("--parabolic", type=int, required=True)
        if system:
            p.add_argument("--n", type=int, default=3)
            p.add_argument("--tier", choices=("nonzero", "point", "levi"),
                           default="levi")
        return p

    leaf(sub, "roots", cmd_roots, "root system data", group=True)
    leaf(sub, "cosets", cmd_cosets, "minimal coset representatives and duals",
         group=True, parabolic=True)
    p = leaf(sub, "multiply", cmd_multiply, "cup product of two basis classes",
             group=True, parabolic=True)
    p.add_argument("--words", required=True)
    p.add_argument("--cache-dir",
                   help="directory that memoizes the products asked for")
    leaf(sub, "inequalities", cmd_inequalities, "eigencone inequality system",
         group=True, system=True)
    p = leaf(sub, "membership", cmd_membership, "test a weight tuple against the cone",
             group=True, system=True)
    p.add_argument("--weights", required=True)

    p = sub.add_parser("verify", help="run a theorem verification driver")
    targets = p.add_subparsers(dest="target", required=True)
    p = leaf(targets, "thm-main", cmd_thm_main, "levi walls lift along an embedding",
             formats=("json", "table"))
    p.add_argument("--case", required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int, default=3)
    p = leaf(targets, "thm-proj", cmd_thm_proj, "the B/C projection theorem",
             formats=("json", "table"))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--group", choices=("B", "C"))

    p = sub.add_parser("tables", help="printed-table reproductions and exports")
    tables = p.add_subparsers(dest="which", required=True)
    leaf(tables, "g2f4", cmd_g2f4, "G2 in F4 cosets, images and duals", default="table")
    leaf(tables, "index", cmd_index, "index sets of Sp(2r)/P_k classes",
         group=True, parabolic=True, default="table")
    p = leaf(tables, "orbits", cmd_orbits, "orbit closure dimensions", default="table")
    p.add_argument("--r", type=int, required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    except (UsageError, ConfigurationError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except EigenconesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
