"""Command-line front end.

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
    coset_table,
    dual_rep,
    embed_element,
    minimal_coset_reps,
    word_str,
    word_to_element,
)

FORMATS = ("json", "csv", "table")
ROOTS_RANK_CAP = 10  # bounds the report: about r^2 roots of r + 1 coordinates each


def _parse_group(group, rank, words=True):
    """The root system of --group (and --rank); the rank is checked first."""
    if group is None:
        raise UsageError("--group is required")
    kind = group.strip()
    if kind[-1:].isdigit():
        if kind in ("G2", "F4"):
            head, tail = kind, int(kind[1])
        else:
            head = kind.rstrip("0123456789")
            tail = int(kind[len(head):])
        if rank is not None and tail != rank:
            raise UsageError(f"group {group} conflicts with --rank {rank}")
        kind, rank = head, tail
    elif rank is None:
        raise UsageError(f"group {group} needs --rank")
    if words:
        check_digit_words(rank)
    elif rank > ROOTS_RANK_CAP:
        raise ResourceCapError(
            f"roots are built for rank <= {ROOTS_RANK_CAP}", cap=ROOTS_RANK_CAP
        )
    return build_root_system(kind, rank)


def _config(args, **extra):
    cfg = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "command") and v is not None
    }
    cfg.update(extra)
    return cfg


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
    R = _parse_group(args.group, args.rank, words=False)
    doc = root_system_to_json(R)
    alphas = [" ".join(map(str, a)) for a in R.root_alpha]
    rows = [("index", "root")] + [(i + 1, a) for i, a in enumerate(alphas)]
    lines = [f"{R.label}: {len(alphas)} positive roots"] + ["  " + a for a in alphas]
    _emit(_report(args, root_system=doc), args.format, rows, lines)
    return 0


def cmd_cosets(args):
    R = _parse_group(args.group, args.rank)
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
    from .schubert import flag_variety, structure_constants

    R = _parse_group(args.group, args.rank)
    F = flag_variety(R, args.parabolic)
    words = args.words.split(",")
    if len(words) != 2:
        raise UsageError("--words takes exactly two comma-separated words")
    u, v = (word_to_element(R, w.strip()) for w in words)
    if u not in F.index or v not in F.index:  # before the cache lookup
        raise UsageError(f"{F.label}: factors must be basis classes")
    if args.cache_dir:
        from .cache import JsonlStore

        store = JsonlStore(args.cache_dir)
        table = store.load_structure_constants(R.kind, R.rank, args.parabolic)
        key = (word_str(u), word_str(v))
        if table is None or key not in table:  # absent, stale or partial
            table = structure_constants(F)
            store.save_structure_constants(R.kind, R.rank, args.parabolic, table)
        coeffs = table[key]
    else:
        prod = F.cup_product(u, v)
        coeffs = {word_str(w): int(c) for w, c in prod.coeffs.items()}
    csv_rows = [("word", "coefficient")] + sorted(coeffs.items())
    lines = [f"{word_str(u)} * {word_str(v)} over {F.label}"] + [
        f"  {c} {w}" for w, c in sorted(coeffs.items())
    ]
    _emit(_report(args, product=dict(sorted(coeffs.items()))), args.format,
          csv_rows, lines)
    return 0


def cmd_inequalities(args):
    from .cones import generate_inequalities

    R = _parse_group(args.group, args.rank)
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
        try:
            coords = tuple(Fraction(t.strip()) for t in chunk.split(","))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"weight {chunk!r} is not a list of rationals") from None
        if len(coords) != R.rank:
            raise UsageError(f"weight {chunk!r} has {len(coords)} coordinates, "
                             f"rank is {R.rank}")
        out.append(Weight(R, coords))
    return tuple(out)


def cmd_membership(args):
    from .cones import generate_inequalities, membership

    R = _parse_group(args.group, args.rank)
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


def cmd_verify(args):
    from .cones import verify_projection, verify_subeigencone

    if args.target == "thm-main":
        if args.case is None:
            raise UsageError("verify thm-main needs --case")
        params = {}
        if args.r is not None:
            check_digit_words(args.r)  # the ambient rank, before any work
            params["r"] = args.r
        if args.s is not None:
            params["s"] = args.s
        report = verify_subeigencone(args.case, params, args.n)
    else:  # thm-proj, the parser's other choice
        if args.r is None or args.s is None:
            raise UsageError("verify thm-proj needs --r and --s")
        report = verify_projection(
            args.r, args.s, args.n, kind=args.group or "C"
        )
    payload = _report(args, report=report)
    lines = [f"{args.target}: {'ok' if report['ok'] else 'FAILED'}"]
    if args.target == "thm-main" and report.get("mode") == "ambient-products":
        for pair in report["pairs"]:
            lines.append(
                f"  Q{pair['sub_parabolic']} -> P{pair['ambient_parabolic']}"
            )
            for row in pair["tuples"]:
                lines.append(
                    f"    ({', '.join(row['words'])}) -> m = "
                    f"{row.get('ambient_multiplicity', '-')}"
                    + ("" if row["ok"] else "  FAILED")
                )
    _emit(payload, args.format, None, lines)
    return 0 if report["ok"] else 1


def _g2f4_tables():
    G2 = build_root_system("G2", 2)
    E = build_embedding("g2-in-f4")
    F4 = E.ambient
    table1, table2, table3 = {}, {}, {}
    for q in (1, 2):
        Q = ParabolicSpec(G2, q)
        p = E.matched_parabolic(q)
        P = ParabolicSpec(F4, p)
        reps = minimal_coset_reps(G2, Q)
        table1[f"Q{q}"] = [
            {"w": word_str(w), "dual": word_str(dual_rep(w, Q))} for w in reps
        ]
        images = [embed_element(E, w, minimize_into=P) for w in reps]
        table2[f"Q{q}"] = [
            {"w": word_str(w), "image": word_str(img)}
            for w, img in zip(reps, images)
        ]
        table3[f"P{p}"] = [
            {"w": word_str(img), "dual": word_str(dual_rep(img, P))}
            for img in images
        ]
    return table1, table2, table3


def cmd_tables(args):
    if args.which == "g2f4":
        t1, t2, t3 = _g2f4_tables()
        payload = _report(args, table1=t1, table2=t2, table3=t3)
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
        _emit(payload, args.format, csv_rows, lines)
        return 0
    if args.which == "index":
        if args.parabolic is None:
            raise UsageError("tables index needs --parabolic")
        from .isogr import index_dictionary_rows
        from .schubert import flag_variety

        R = _parse_group(args.group, args.rank)
        F = flag_variety(R, args.parabolic)
        rows = index_dictionary_rows(F)
        csv_rows = [("word", "index_set", "dim", "codim")] + [
            (r["word"], " ".join(str(i) for i in r["index_set"]),
             r["dim"], r["codim"])
            for r in rows
        ]
        lines = [f"index sets for {F.label}"] + [
            f"  {r['word']:<8} {{{', '.join(str(i) for i in r['index_set'])}}}"
            f"  dim {r['dim']}"
            for r in rows
        ]
        _emit(_report(args, rows=rows), args.format, csv_rows, lines)
        return 0
    if args.which == "orbits":
        if args.r is None or not 2 <= args.r <= 9:  # before any rows are built
            raise UsageError("tables orbits needs --r with 2 <= r <= 9")
        from .isogr import orbit_table_rows

        rows = orbit_table_rows(args.r)
        csv_rows = [("k", "r", "O1", "O2", "O2'", "O3")] + [
            (r["k"], r["r"], r["O1"], r["O2"], r["O2'"], r["O3"]) for r in rows
        ]
        lines = [f"orbit closure dimensions, r = {args.r}"] + [
            "  k={}: {} {} {} {}".format(
                r["k"], r["O1"], r["O2"], r["O2'"], r["O3"]
            )
            for r in rows
        ]
        _emit(_report(args, rows=rows), args.format, csv_rows, lines)
        return 0
    raise UsageError(f"unknown table {args.which!r}")


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Rejects a command line with one ``usage error:`` line and exit 2.

    Subparsers are made by the parser's own class, so they inherit it.
    """

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="eigencones",
        description="Exact Schubert calculus and eigencone computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, parabolic=False, n=False):
        p.add_argument("--group")
        p.add_argument("--rank", type=int)
        p.add_argument("--format", choices=FORMATS, default="json")
        if parabolic:
            p.add_argument("--parabolic", type=int, required=True)
        if n:
            p.add_argument("--n", type=int, default=3)
            p.add_argument("--tier", choices=("nonzero", "point", "levi"),
                           default="levi")

    p = sub.add_parser("roots", help="root system data")
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("cosets", help="minimal coset representatives and duals")
    common(p, parabolic=True)
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("multiply", help="cup product of two basis classes")
    common(p, parabolic=True)
    p.add_argument("--words", required=True)
    p.add_argument("--cache-dir")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("inequalities", help="eigencone inequality system")
    common(p, n=True)
    p.set_defaults(func=cmd_inequalities)

    p = sub.add_parser("membership", help="test a weight tuple against the cone")
    common(p, n=True)
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("verify", help="run a theorem verification driver")
    p.add_argument("target", choices=("thm-main", "thm-proj"))
    p.add_argument("--case")
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--group")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="printed-table reproductions and exports")
    p.add_argument("which", choices=("g2f4", "index", "orbits"))
    p.add_argument("--group")
    p.add_argument("--rank", type=int)
    p.add_argument("--parabolic", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_tables)

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
