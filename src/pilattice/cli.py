"""Command-line front end: codimension computations, verification
suites, and Specht filtrations, emitted as machine-readable reports.

Exit codes are a contract: 0 success, 1 usage or parse error, 2
resource-budget abort, 3 verification failure.  Reports are byte-stable
for a fixed configuration and seed; integers beyond 2^53 are emitted as
decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass
from typing import Sequence

from .lattices import AbelianInvariants, json_sanitize
from .pitheory import (
    CLAIMS,
    BudgetExceeded,
    degree_bound,
    ordinary_codim,
    run_claim,
)
from .rings import RingModel, cyclic_ring, direct_sum, grassmann, ut2
from .specht import hook_number, induce_mod, is_partition, pair, specht_lattice

SCHEMA = "pi-lattice/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the exit-code contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a report, echoed into its header."""

    command: str
    ring: str | None = None
    n: tuple[int, ...] | None = None
    q: int | None = None
    k: int | None = None
    output: str | None = None
    format: str = "json"
    seed: int | None = None
    row_budget: int | None = None
    claim: str | None = None
    n_max: int | None = None
    mode: str | None = None
    lam: tuple[int, ...] | None = None
    m: int | None = None
    timings: bool = False

    def to_json(self) -> dict:
        doc = {k: v for k, v in asdict(self).items() if v is not None}
        doc.pop("output", None)
        doc.pop("timings", None)
        return json_sanitize(doc)


# ---------------------------------------------------------------------------
# ring-spec mini-grammar
# ---------------------------------------------------------------------------

_HEADS = ("cyclic:", "ut2:", "grassmann:", "sum:")


def _split_sum_items(inner: str) -> list[str]:
    """Split the body of sum:[...] into one string per ring spec.

    Commas separate both specs and their parameters, so segments that do
    not start a new spec are glued back onto the previous one; bracket
    nesting is respected for nested sums."""
    segments: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in inner:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets in sum spec")
        if ch == "," and depth == 0:
            segments.append("".join(current))
            current = []
        else:
            current.append(ch)
    segments.append("".join(current))
    if depth:
        raise ValueError("unbalanced brackets in sum spec")
    items: list[str] = []
    for seg in segments:
        seg = seg.strip()
        if seg.startswith(_HEADS) or seg.startswith("@") or not items:
            items.append(seg)
        else:
            items[-1] += "," + seg
    return items


def parse_ring_spec(spec: str) -> RingModel:
    """cyclic:m | ut2:ell,m | grassmann:ell,K | sum:[spec,...] | @file.json"""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty ring spec")
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return RingModel.from_json(json.load(fh))
    head, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed ring spec {spec!r}")
    if head == "cyclic":
        return cyclic_ring(_int_params(rest, 1, spec)[0])
    if head == "ut2":
        ell, m = _int_params(rest, 2, spec)
        return ut2(ell, m)
    if head == "grassmann":
        ell, k = _int_params(rest, 2, spec)
        return grassmann(ell, k)
    if head == "sum":
        if not (rest.startswith("[") and rest.endswith("]")):
            raise ValueError(f"sum spec needs a bracketed list: {spec!r}")
        items = _split_sum_items(rest[1:-1])
        return direct_sum(*(parse_ring_spec(item) for item in items))
    raise ValueError(f"unknown ring family {head!r} in {spec!r}")


def _int_params(text: str, count: int, spec: str) -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count or not all(parts):
        raise ValueError(f"expected {count} integer parameter(s) in {spec!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"non-integer parameter in {spec!r}") from None


def parse_n_range(text: str) -> tuple[int, ...]:
    """Either a single degree "3" or an inclusive range "2..5"."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise ValueError(f"empty degree range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _int_at_least(lo: int):
    """argparse type: an integer option with a lower bound."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def parse_partition(text: str) -> tuple[int, ...]:
    parts = tuple(int(p) for p in text.split(",") if p.strip())
    if not is_partition(parts) or not parts:
        raise ValueError(f"{text!r} is not a partition (weakly decreasing, positive)")
    return parts


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(config: RunConfig, doc: dict, header: Sequence[str], rows) -> None:
    if config.format == "csv":
        text = _csv_text(header, rows)
    else:
        text = json.dumps(json_sanitize(doc), indent=2, sort_keys=True) + "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _invariant_cells(inv_doc: dict) -> tuple[int, str]:
    return inv_doc["free_rank"], "x".join(str(d) for d in inv_doc["torsion"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_codim(args) -> int:
    model = parse_ring_spec(args.ring)
    if args.k is not None:
        if model.family != "grassmann":
            raise ValueError("--k applies only to grassmann ring specs")
        model = grassmann(model.params[0], args.k)
    degrees = parse_n_range(args.n)
    bound = degree_bound(model)
    if max(degrees) > bound:
        raise ValueError(
            f"degree {max(degrees)} exceeds the bound {bound} for {model.label}"
        )
    if args.q is not None:
        AbelianInvariants((), 0).codim(args.q)  # reject a bad q before evaluating
    config = RunConfig(
        command="codim", ring=args.ring, n=degrees, q=args.q, k=args.k,
        output=args.output, format=args.format, seed=args.seed,
        row_budget=args.row_budget, timings=args.timings,
    )
    docs, rows = [], []
    for n in degrees:
        rep = ordinary_codim(
            model, n, include_proper=args.proper, row_budget=args.row_budget
        )
        doc = rep.to_json(timings=args.timings)
        for kind in ("ordinary", "proper"):
            inv = getattr(rep, kind)
            if inv is None:
                continue
            count = ""
            if args.q is not None:
                doc["q"] = args.q
                count = doc[f"{kind}_count"] = inv.codim(args.q)
            rows.append([rep.ring_label, n, kind, *_invariant_cells(doc[kind]), count])
        docs.append(doc)
    header = ["ring", "n", "kind", "free_rank", "torsion", "count_at_q"]
    _emit(
        config,
        {
            "schema": SCHEMA,
            "command": "codim",
            "config": config.to_json(),
            "reports": docs,
        },
        header,
        rows,
    )
    return EXIT_OK


def _verify_config(args) -> dict:
    config: dict = {}
    if args.n_max is not None:
        config["n_max"] = args.n_max
    if args.row_budget is not None:
        config["row_budget"] = args.row_budget
    if args.ring is not None:
        model = parse_ring_spec(args.ring)
        if args.claim == "ut2.codim":
            if model.family != "ut2":
                raise ValueError("ut2.codim narrows to ut2:ell,m rings only")
            config["subjects"] = [model.params]
        elif args.claim == "grassmann.codim":
            if model.family != "grassmann":
                raise ValueError("grassmann.codim narrows to grassmann rings only")
            config["subjects"] = [model.params[0]]
        elif args.claim in ("proper-ordinary", "drensky", "field-props"):
            config["models"] = [model]
        else:
            raise ValueError(f"--ring is not meaningful for claim {args.claim!r}")
    return config


def cmd_verify(args) -> int:
    if args.claim not in CLAIMS:
        raise ValueError(
            f"unknown claim {args.claim!r}; known: {', '.join(sorted(CLAIMS))}"
        )
    config = _verify_config(args)
    outcomes = run_claim(args.claim, config)
    if not outcomes:
        raise ValueError(f"claim {args.claim!r} selects no checks with these options")
    failed = [oc for oc in outcomes if not oc.passed]
    run_config = RunConfig(
        command="verify", claim=args.claim, ring=args.ring, n_max=args.n_max,
        output=args.output, format=args.format, seed=args.seed,
        row_budget=args.row_budget,
    )
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "config": run_config.to_json(),
        "passed": not failed,
        "counts": {"total": len(outcomes), "failed": len(failed)},
        "outcomes": [oc.to_json() for oc in outcomes],
    }
    header = ["claim", "subject", "n", "passed", "expected", "computed", "witness"]
    rows = [
        [
            oc.claim, oc.subject, "" if oc.n is None else oc.n, oc.passed,
            json.dumps(json_sanitize(oc.expected), sort_keys=True),
            json.dumps(json_sanitize(oc.computed), sort_keys=True),
            oc.witness,
        ]
        for oc in outcomes
    ]
    _emit(run_config, doc, header, rows)
    return EXIT_FAILED if failed else EXIT_OK


def cmd_specht(args) -> int:
    lam = parse_partition(args.lam)
    config = RunConfig(
        command="specht", mode=args.mode, lam=lam,
        n=None if args.n is None else (args.n,), m=args.m,
        output=args.output, format=args.format, seed=args.seed,
    )
    if args.mode == "rank":
        lattice_rank = specht_lattice(pair(lam, lam)).rank
        hook_rank = hook_number(lam)
        doc = {
            "schema": SCHEMA,
            "command": "specht",
            "config": config.to_json(),
            "lambda": list(lam),
            "rank": lattice_rank,
            "hook_rank": hook_rank,
            "consistent": lattice_rank == hook_rank,
        }
        rows = [[",".join(map(str, lam)), lattice_rank, hook_rank]]
        _emit(config, doc, ["lambda", "rank", "hook_rank"], rows)
        return EXIT_OK if lattice_rank == hook_rank else EXIT_FAILED
    if args.n is None:
        raise ValueError("filtrate needs --n")
    report = induce_mod(lam, args.n, args.m)
    doc = {
        "schema": SCHEMA,
        "command": "specht",
        "config": config.to_json(),
        "report": report.to_json(),
    }
    header = ["lambda", "mu", "modulus", "factor", "rank", "invariants"]
    rows = [
        [
            ",".join(map(str, report.lam)),
            ",".join(map(str, report.mu)),
            report.modulus,
            ",".join(map(str, f.label)),
            f.lattice_rank,
            "x".join(str(d) for d in f.invariants.elementary_divisors())
            + (f"+Z^{f.invariants.free_rank}" if f.invariants.free_rank else ""),
        ]
        for f in report.factors
    ]
    _emit(config, doc, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", "-o", help="write the report here (default stdout)")
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format (default json)",
    )
    sub.add_argument(
        "--seed", type=int, default=None,
        help="seed recorded in the report for reproducibility",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pilattice",
        description="Exact integer codimension and Specht-filtration reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    codim = sub.add_parser(
        "codim", help="ordinary (and proper) codimension invariants"
    )
    codim.add_argument(
        "--ring", required=True,
        help="cyclic:m | ut2:ell,m | grassmann:ell,K | sum:[...] | @file.json",
    )
    codim.add_argument("--n", required=True, help='degree or range, e.g. "2..5"')
    codim.add_argument(
        "--proper", action="store_true", help="include proper invariants"
    )
    codim.add_argument("--q", type=int, default=None, help="also report c_n(.,q)")
    codim.add_argument(
        "--k", type=int, default=None, help="override the grassmann truncation"
    )
    codim.add_argument("--row-budget", type=_int_at_least(0), default=None)
    codim.add_argument(
        "--timings", action="store_true",
        help="include wall-clock fields (report is no longer byte-stable)",
    )
    _add_common(codim)
    codim.set_defaults(handler=cmd_codim)

    verify = sub.add_parser("verify", help="run a registered verification claim")
    verify.add_argument("claim", help=", ".join(sorted(CLAIMS)))
    verify.add_argument("--n-max", type=_int_at_least(1), default=None)
    verify.add_argument(
        "--ring", default=None, help="narrow the claim to one ring model"
    )
    verify.add_argument("--row-budget", type=_int_at_least(0), default=None)
    _add_common(verify)
    verify.set_defaults(handler=cmd_verify)

    specht = sub.add_parser(
        "specht", help="Specht lattice ranks and induced filtrations"
    )
    specht.add_argument("mode", choices=("filtrate", "rank"))
    specht.add_argument(
        "--lambda", dest="lam", required=True, help='partition, e.g. "2,1"'
    )
    specht.add_argument("--n", type=int, default=None, help="induce up to degree n")
    specht.add_argument("--m", type=int, default=0, help="reduce factors mod m")
    _add_common(specht)
    specht.set_defaults(handler=cmd_specht)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"pilattice: resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"pilattice: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
