"""Command-line entry point.

Subcommands: ``check`` (re-run one saved instance), ``fuzz`` (seeded
campaign with JSONL output), ``dilate`` (Stinespring dilation of a map
spec), and ``demo`` (worked equality examples).

Exit codes: 0 clean, 1 usage or input error, 2 violations found,
3 generation failures or numerical errors. The environment variable
BOHR_TOL overrides the default slack tolerance; an explicit ``--tol`` beats
both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .cpmaps import stinespring
from .harness import (
    CampaignConfig,
    GenerationError,
    HarnessError,
    demo_table,
    replay,
    run_campaign,
)
from .serialize import (
    SerializationError,
    THEOREM_ALIASES,
    THEOREMS,
    map_from_json,
    matrix_to_json,
    read_json,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_GENERATION = 3  # also numerical errors


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for violations here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bohrcheck",
        description="Numerical checks for eigenvalue and norm extensions of Bohr's inequality.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_check = sub.add_parser("check", help="re-run one saved instance file")
    p_check.add_argument("--in", dest="infile", required=True, help="instance JSON path")
    p_check.add_argument("--tol", type=float, default=None, help="absolute slack tolerance")
    p_check.set_defaults(run=_cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="run a seeded campaign")
    p_fuzz.add_argument("--theorem", required=True, choices=THEOREMS + tuple(THEOREM_ALIASES))
    p_fuzz.add_argument("--trials", type=int, required=True)
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--n-max", type=int, default=8, help="largest input dimension (default 8)")
    p_fuzz.add_argument("--m-max", type=int, default=None, help="largest output dimension (defaults to --n-max)")
    p_fuzz.add_argument("--ell-max", type=int, default=4, help="largest family length (default 4)")
    p_fuzz.add_argument("--r-min", type=float, default=1.1, help="exponent range low end (default 1.1)")
    p_fuzz.add_argument("--r-max", type=float, default=4.0, help="exponent range high end (default 4.0)")
    p_fuzz.add_argument("--variant", choices=("subunital", "unital"), default=None,
                        help="force one jensen-map hypothesis profile")
    p_fuzz.add_argument("--tol", type=float, default=None, help="absolute slack tolerance")
    p_fuzz.add_argument("--rhs-scale", type=float, default=1.0,
                        help="mutation hook: rescale the cor45 right-hand constant")
    p_fuzz.add_argument("--out", required=True, help="JSONL report path")
    p_fuzz.set_defaults(run=_cmd_fuzz)

    p_dilate = sub.add_parser("dilate", help="Stinespring-dilate a map spec")
    p_dilate.add_argument("--map", dest="mapfile", required=True, help="map spec JSON path")
    p_dilate.add_argument("--out", required=True, help="dilation JSON path")
    p_dilate.set_defaults(run=_cmd_dilate)

    sub.add_parser("demo", help="run the worked equality examples").set_defaults(run=_cmd_demo)
    return parser


def _tol(args) -> float | None:
    """``--tol`` if given, else BOHR_TOL if set and nonempty, else None."""
    raw = os.environ.get("BOHR_TOL")
    if args.tol is not None or not raw:
        return args.tol
    try:
        return float(raw)
    except ValueError as exc:
        raise SerializationError(f"BOHR_TOL must be a number, got {raw!r}") from exc


def _cmd_check(args) -> int:
    report = replay(args.infile, _tol(args))
    print(f"theorem:  {report.theorem_id}")
    print(f"verdict:  {report.verdict}")
    print(f"digest:   {report.input_digest}")
    if report.min_slack is not None:
        print(f"lhs sums: {list(report.partial_sums_lhs)}")
        print(f"rhs sums: {list(report.partial_sums_rhs)}")
        print(f"min slack {report.min_slack:.6g} at tolerance {report.tol_used:.3g}")
    failed = report.failed_hypotheses()
    if failed:
        print("failed hypotheses: " + "; ".join(failed))
    return EXIT_VIOLATIONS if report.violated else EXIT_OK


def _cmd_fuzz(args) -> int:
    n_max, ell_max = args.n_max, args.ell_max
    m_max = args.m_max if args.m_max is not None else n_max
    cfg = CampaignConfig(
        theorem=args.theorem,
        trials=args.trials,
        seed=args.seed,
        n_range=(min(2, n_max), n_max),
        m_range=(min(2, m_max), m_max),
        ell_range=(1, ell_max),
        r_range=(args.r_min, args.r_max),
        variant=args.variant,
        tol_override=_tol(args),
        rhs_scale=args.rhs_scale,
    )
    result = run_campaign(cfg, args.out)
    print(json.dumps(result.summary))
    for path in result.violation_paths:
        print(f"violation instance saved: {path}", file=sys.stderr)
    for path in result.error_paths:
        print(f"error instance saved: {path}", file=sys.stderr)
    if result.summary["violations"] > 0:
        return EXIT_VIOLATIONS
    if result.summary["generation_failures"] > 0 or result.summary["errors"] > 0:
        return EXIT_GENERATION
    return EXIT_OK


def _cmd_dilate(args) -> int:
    spec = map_from_json(read_json(args.mapfile))
    dilation = stinespring(spec)
    out = {
        "V": matrix_to_json(dilation.isometry)
        if dilation.isometry.shape[0] > 0
        else {"n": 0, "re": [], "im": []},
        "kraus": [matrix_to_json(k) for k in dilation.kraus],
        "pi_block_count": dilation.block_count,
        "recon_residual": dilation.recon_residual,
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(
        f"wrote dilation with {dilation.block_count} Kraus operators to {args.out} "
        f"(reconstruction residual {dilation.recon_residual:.3g})"
    )
    return EXIT_OK


def _cmd_demo(args) -> int:
    print(demo_table())
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    # Every input error (SerializationError, SpecError, DimensionError) is a ValueError.
    except (HarnessError, GenerationError, OSError, ValueError) as exc:
        print(f"bohrcheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
