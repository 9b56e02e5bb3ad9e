"""Command line interface: root data tables, gamma words, relation dumps, verify runs."""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext
from json.encoder import JSONEncoder, encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, List, Optional, Sequence

from . import fateev
from .exact import DEFAULT_DIGITS, UndecidedRounding, check_digits
from .gammaword import brace_str
from .prover import RankError, Relation, relations_for
from .rootsys import FAMILIES, RANK_RANGE, RootSystemId, build

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

# Infinite families stop here unless the user gives an upper rank bound.
DEFAULT_RANK_CAP = 12

_encode = JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# Records per encoder call.  A call per record costs about 3 us more per
# record, about 7 ms over the 2,429 records of `relations 840`; a larger
# batch has the encoder buffer more chunks at once, 1.2 MB more there at 64.
RECORD_BATCH = 16


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace; byte-stable across runs.

    The text equals json.dumps(obj, sort_keys=True, separators=(",", ":")),
    but a dict or a list of records is never handed to the encoder whole,
    which would buffer it as about one chunk per token.  A dict is written
    here: its keys sorted, each value through dumps_canonical.  A list of
    dicts, such as the reports of a verify run or the relations of a grid,
    is encoded RECORD_BATCH records at a time, each batch's brackets
    stripped.  Anything else, a list of lists included, is one encoder call.

    Keys must be strings.  A dict written here raises TypeError for any
    other key, where json.dumps would write {1: 2} as {"1":2}; the records
    of a list are the encoder's, which converts such keys as json.dumps does.
    """
    if isinstance(obj, dict):
        # Comma, key, colon and value per member, the first comma dropped: the
        # one join copies each value once, however large.
        pieces = [p for k in sorted(obj) for p in (",", _quote(k), ":", dumps_canonical(obj[k]))]
        return "".join(["{", *pieces[1:], "}"])
    if isinstance(obj, list) and all(isinstance(item, dict) for item in obj):
        starts = range(0, len(obj), RECORD_BATCH)
        return f"[{','.join(_encode(obj[i : i + RECORD_BATCH])[1:-1] for i in starts)}]"
    return _encode(obj)


def system_ids(
    families: Sequence[str], rank_min: Optional[int], rank_max: Optional[int]
) -> List[RootSystemId]:
    """The systems of the families within the rank bounds, family by family."""
    out = []
    for family in families:
        lo, hi = RANK_RANGE[family]
        lo = max(lo, rank_min) if rank_min is not None else lo
        if rank_max is not None:
            hi = rank_max if hi is None else min(hi, rank_max)
        elif hi is None:
            hi = DEFAULT_RANK_CAP
        out.extend(RootSystemId(family, rank) for rank in range(lo, hi + 1))
    return out


def _relation_text(relation: Relation, n: int) -> str:
    factors = (f"gamma({j}/{n})" if e == 1 else f"gamma({j}/{n})^({e})" for j, e in relation.vector)
    return f"{relation.tag}: {'*'.join(factors)} = {relation.value}"


def cmd_table(args) -> int:
    system = build(RootSystemId(args.family, args.rank))
    obj = system.to_json_obj()
    if args.format == "json":
        print(dumps_canonical(obj))
        return EXIT_OK
    lines = [
        f"{system.ident}: rank {system.rank}, {obj['positive_root_count']} positive roots",
        f"mark sum h = {system.coxeter_number}, comark sum = {obj['comark_sum']}, "
        f"simply laced: {'yes' if system.simply_laced else 'no'}",
        f"marks (node 0 first): {' '.join(map(str, system.marks))}",
        f"comarks: {' '.join(obj['comarks'])}",
        f"double comarks: {' '.join(obj['double_comarks'])}",
        f"rho = ({', '.join(obj['rho'])})",
        f"rho_check = ({', '.join(obj['rho_check'])})",
        "simple roots:",
    ]
    for i, root in enumerate(obj["simple_roots"], start=1):
        lines.append(f"  alpha_{i} = ({', '.join(root)})")
    lines.append("positive roots (by height):")
    # obj lists the roots by height, so they pair with the sorted heights.
    for height, root in zip(sorted(system.heights), obj["positive_roots"]):
        lines.append(f"  height {height:2d}: ({', '.join(root)})")
    print("\n".join(lines))
    return EXIT_OK


def cmd_word(args) -> int:
    system = build(RootSystemId(args.family, args.rank))
    word = fateev.lhs_word(system, args.index, args.variant)
    if args.format == "json":
        print(dumps_canonical(word.to_json_obj()))
        return EXIT_OK
    print(
        f"{system.ident} alpha_{args.index} {args.variant}: {brace_str(word)}   "
        f"(grid denominator {word.denominator})"
    )
    return EXIT_OK


def cmd_relations(args) -> int:
    relations = relations_for(args.denominator)
    if args.format == "json":
        payload = [r.to_json_obj() for r in relations]
        print(dumps_canonical(payload))
        return EXIT_OK
    lines = [f"{len(relations)} relations on the 1/{args.denominator} grid"]
    lines.extend(_relation_text(r, args.denominator) for r in relations)
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    families = tuple(dict.fromkeys(args.family)) if args.family else FAMILIES
    if args.rank is not None and (args.rank_min is not None or args.rank_max is not None):
        raise ValueError("--rank excludes --rank-min/--rank-max")
    rank_min = args.rank if args.rank is not None else args.rank_min
    rank_max = args.rank if args.rank is not None else args.rank_max
    variants = tuple(dict.fromkeys(args.variant)) if args.variant else fateev.VARIANTS
    # Checked before the precision setup and the output file, in every mode.
    check_digits(args.digits, "--digits")
    idents = system_ids(families, rank_min, rank_max)
    # Whether some selected system admits some selected variant; builds nothing.
    if not any(fateev.admissible_family(i.family, v) for i in idents for v in variants):
        if (
            rank_max is None
            and rank_min is not None
            and rank_min > DEFAULT_RANK_CAP
            and any(RANK_RANGE[family][1] is None for family in families)
        ):
            raise ValueError(
                f"nothing to verify: --rank-min {rank_min} is above the default "
                f"rank cap {DEFAULT_RANK_CAP} of the infinite families; "
                "give --rank-max as well"
            )
        raise ValueError(
            "nothing to verify: the selected families, ranks and variants "
            "hold no admissible case"
        )
    # Opened before the run, so an unwritable path fails before any work.
    with open(args.output, "w", encoding="utf-8") if args.output else nullcontext() as out:
        ctx = None
        if fateev.MODES[args.mode][1]:
            # The numeric route loads only when the mode cross-checks.
            from .numeric import PrecisionContext

            ctx = PrecisionContext.for_digits(args.digits)
        # A generator: verify_all builds each system as it reaches it and keeps
        # none, so one system is held at a time.
        summary = fateev.verify_all((build(i) for i in idents), variants, args.mode, ctx)
        if args.format == "json":
            payload = summary.to_json_obj()
            payload["mode"] = args.mode
            payload["digits"] = args.digits
            print(dumps_canonical(payload), file=out)
        else:
            lines = [r.text_line() for r in summary.reports]
            counts = ", ".join(f"{k}: {v}" for k, v in summary.counts.items())
            lines.append(
                f"{len(summary.reports)} checks ({counts}) -> "
                f"{'PASS' if summary.all_passed else 'FAIL'}"
            )
            print("\n".join(lines), file=out)
    return EXIT_OK if summary.all_passed else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    # Imported here: importing cli for dumps_canonical alone loads no argparse.
    import argparse

    parser = argparse.ArgumentParser(
        prog="gammaroots",
        description="Exact verification of Gamma-product identities on root systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    p_table = add_command("table", "print the root data of one system", cmd_table)
    p_table.add_argument("family", choices=FAMILIES)
    p_table.add_argument("rank", type=int)

    p_word = add_command("word", "print one left-side gamma word", cmd_word)
    p_word.add_argument("family", choices=FAMILIES)
    p_word.add_argument("rank", type=int)
    p_word.add_argument("index", type=int)
    p_word.add_argument("variant", choices=fateev.VARIANTS)

    p_rel = add_command("relations", "dump the relation lattice of one grid", cmd_relations)
    p_rel.add_argument("denominator", type=int)

    p_verify = add_command("verify", "run identity checks", cmd_verify)
    p_verify.add_argument("--family", action="append", choices=FAMILIES)
    p_verify.add_argument("--rank", type=int)
    p_verify.add_argument("--rank-min", type=int, dest="rank_min")
    p_verify.add_argument("--rank-max", type=int, dest="rank_max")
    p_verify.add_argument("--variant", action="append", choices=fateev.VARIANTS)
    p_verify.add_argument("--mode", choices=fateev.MODES, default="both")
    p_verify.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p_verify.add_argument("--output", help="write the report here instead of stdout")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (say `| head`): stop without a
        # message, and point stdout at devnull so the exit-time flush cannot
        # fail again.  Not all output was delivered, so this is no success.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFICATION_FAILED
    except (OSError, ValueError, RankError, UndecidedRounding) as exc:
        # A relation lattice of the wrong rank fails the proof, and a rounding
        # test that never decides fails the cross-check: neither is a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, (OSError, ValueError)) else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
