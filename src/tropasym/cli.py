"""Command-line interface.

A matrix is a max-plus matrix given as a JSON array of rows.  Commands that
solve trajectories sample them at k = 4 * 2^i for i = 0 .. --doublings.
Exit codes: 0 on success, 1 on input errors (an unreadable or unwritable
file among them, or a campaign that cannot find its counts within its draw
budget), 2 on numerical failures.  Randomized commands refuse to run without
an explicit --seed so that every report is reproducible.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import conjectures as conj
from . import figures as figs
from .core import TropicalMatrix
from .perron import (
    DEFAULT_DOUBLINGS,
    EstimateError,
    estimate_p_infinity,
    geometric_schedule,
    normalized_trajectory,
    trajectory_csv,
)
from .plotting import render_eigenspace_svg
from .schur import candidate_exponents, compare_prediction, report_to_json
from .spectral import spectral_data


# random draws a conjectures campaign may make to find its counts
_MAX_ATTEMPTS = 20000


def _entry_to_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise ValueError("boolean matrix entry")
    if isinstance(x, float):
        return Fraction(repr(x))  # decimal reading of the literal
    return Fraction(x)


def _matrix_from_obj(obj) -> TropicalMatrix:
    if not isinstance(obj, list):
        raise ValueError("matrix must be a JSON array of rows")
    if not all(isinstance(row, list) for row in obj):
        raise ValueError("every matrix row must be a JSON array")
    try:
        return TropicalMatrix.from_rows([[_entry_to_rational(x) for x in row] for row in obj])
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(str(exc)) from exc


def load_matrix(args) -> TropicalMatrix:
    if args.matrix is not None and args.input is not None:
        raise ValueError("pass either --matrix or --input, not both")
    if args.matrix is not None:
        text = args.matrix
    elif args.input is not None:
        text = Path(args.input).read_text()  # OSError -> exit 1
    else:
        raise ValueError("a matrix is required (--matrix JSON or --input FILE)")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return _matrix_from_obj(obj)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_spectrum(args) -> int:
    A = load_matrix(args)
    sd = spectral_data(A)
    _emit(json.dumps(sd.to_json_dict(), indent=2), args.out)
    return 0


def cmd_perron(args) -> int:
    A = load_matrix(args)
    schedule = geometric_schedule(args.doublings)
    gens = [g.to_floats() for g in spectral_data(A).generators]
    traj = normalized_trajectory(A.to_floats(), schedule)
    _emit(trajectory_csv(traj, gens), args.out)
    est = estimate_p_infinity(traj)  # EstimateError -> exit 2, CSV already emitted
    sys.stdout.write(json.dumps(est.to_json_dict(), indent=2) + "\n")
    return 0


def cmd_schur(args) -> int:
    A = load_matrix(args)
    schedule = geometric_schedule(args.doublings)
    report = candidate_exponents(A.negate())
    traj = normalized_trajectory(A.to_floats(), schedule)
    est = estimate_p_infinity(traj)
    verdicts = compare_prediction(report, est)
    _emit(report_to_json(report, verdicts), args.out)
    return 0


def cmd_figures(args) -> int:
    rows = figs.figure_report(geometric_schedule(args.doublings))
    _emit(json.dumps(rows, indent=2), args.out)
    return 0


def cmd_plot(args) -> int:
    A = load_matrix(args)
    if A.n != 3:
        raise ValueError(
            "plot requires n = 3: only TP^2 projects to the plane for drawing"
        )
    if args.grid < 2:
        raise ValueError("grid must be at least 2")
    schedule = geometric_schedule(args.doublings)
    sd = spectral_data(A)
    traj = normalized_trajectory(A.to_floats(), schedule)
    svg = render_eigenspace_svg(sd, traj, grid=args.grid)
    out = args.out or "eigenspace.svg"
    Path(out).write_text(svg)
    sys.stdout.write(f"wrote {out}\n")
    return 0


def _verdict_summary(verdicts) -> dict:
    return {
        "count": len(verdicts),
        "all_hold": all(v.holds for v in verdicts),
        "failures": [v.witness for v in verdicts if not v.holds],
    }


def cmd_conjectures(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required for randomized commands")
    if min(args.chains, args.families) < 0 or args.chains == args.families == 0:
        raise ValueError("--chains and --families must be at least 0, and not both 0")
    # a family's perturbations are distinct single-entry candidates of a 3 x 3 base
    candidates = len(conj._candidate_moves(3)[0])
    if not 1 <= args.perturbations <= candidates:
        raise ValueError(f"--perturbations must be at least 1 and at most {candidates}")
    schedule = geometric_schedule(args.doublings)
    rng = random.Random(args.seed)
    report: dict = {"seed": args.seed}

    # the family loop continues the stream after the last chain drawn
    chains, attempts = conj._sample_chains(rng, args.chains, _MAX_ATTEMPTS)
    c1_verdicts = [conj.conjecture1_test(A, schedule) for A in chains]
    # conjecture1_test also takes one generator as the degenerate chain, which
    # the screen's rule excludes: an admitted one is a wrong flag
    if any(len(v.spectra[0].generators) < 2 for v in c1_verdicts):
        raise ValueError("eigenspace is not a translation chain")
    report["conjecture1"] = _verdict_summary(c1_verdicts)

    bases, c2_verdicts = [], []
    while len(bases) < args.families and attempts < _MAX_ATTEMPTS:
        attempts += 1
        A = conj.random_matrix(3, seed=rng)
        perts = conj.eigenspace_preserving_perturbations(
            A, count=args.perturbations, seed=rng.randrange(2**32)
        )
        if len(perts) < args.perturbations:
            continue
        bases.append(A)
        c2_verdicts.append(conj.conjecture2_test(A, perts, schedule))
    report["conjecture2"] = _verdict_summary(c2_verdicts)
    if len(chains) < args.chains or len(bases) < args.families:
        raise ValueError(
            f"{attempts} draws found {len(chains)} of {args.chains} chains"
            f" and {len(bases)} of {args.families} families"
        )

    dataset_rows = [
        (A, v.spectra[0], v.estimates[0], args.seed)
        for A, v in zip(chains + bases, c1_verdicts + c2_verdicts)
    ]
    conj.export_samples(dataset_rows, args.dataset)
    report["dataset"] = {"path": args.dataset, "rows": len(dataset_rows)}

    try:
        _emit(json.dumps(report, indent=2), args.out)
    except OSError:
        Path(args.dataset).unlink()  # a failed campaign leaves no dataset
        raise
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later calls."""
    p = argparse.ArgumentParser(
        prog="trop-asym",
        description="Tropical spectral data and Perron eigenvector asymptotics of exp(kA)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, matrix=True, solver=True):
        if matrix:
            sp.add_argument("--input", help="path to a matrix JSON file")
            sp.add_argument("--matrix", help="inline matrix JSON")
        if solver:
            sp.add_argument("--doublings", type=int, default=DEFAULT_DOUBLINGS)
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("spectrum", help="tropical eigenvalue, classes, generators")
    common(sp, solver=False)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("perron", help="trajectory CSV plus limit estimate JSON")
    common(sp)
    sp.set_defaults(func=cmd_perron)

    sp = sub.add_parser("schur", help="candidate exponent pipeline report")
    common(sp)
    sp.set_defaults(func=cmd_schur)

    sp = sub.add_parser("figures", help="bundled reference matrices, with caption flags")
    common(sp, matrix=False)
    sp.set_defaults(func=cmd_figures)

    sp = sub.add_parser("plot", help="SVG of the eigenspace region and trajectory")
    common(sp)
    sp.add_argument("--grid", type=int, default=400)
    sp.set_defaults(func=cmd_plot)

    sp = sub.add_parser("conjectures", help="seeded conjecture campaign")
    common(sp, matrix=False)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--chains", type=int, default=20, help="chain matrices to test")
    sp.add_argument("--families", type=int, default=5, help="perturbation families to test")
    sp.add_argument("--perturbations", type=int, default=3)
    sp.add_argument("--dataset", default="g_samples.jsonl", help="JSON-lines sample dataset")
    sp.set_defaults(func=cmd_conjectures)

    return p


def _check_output_dirs(args):
    """Refuse, before any solving, an output whose directory does not exist,
    and a campaign report that would overwrite the campaign's dataset."""
    outs = [out for out in (args.out, getattr(args, "dataset", None)) if out]
    for out in outs:
        if not Path(out).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    if len(outs) == 2 and Path(outs[0]).resolve() == Path(outs[1]).resolve():
        raise ValueError(f"--out and --dataset are one file: {args.out}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: an unreadable input or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EstimateError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
