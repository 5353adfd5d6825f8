"""Command-line interface.

Exit codes: 0 on success, 1 on input errors, 2 on numerical failures.
Randomized commands refuse to run without an explicit --seed so that every
report is reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import conjectures as conj
from . import figures as figs
from .core import MAX_PLUS, MIN_PLUS, TropicalMatrix
from .perron import (
    DEFAULT_DOUBLINGS,
    DEFAULT_K0,
    EstimateError,
    estimate_p_infinity,
    geometric_schedule,
    normalized_trajectory,
    trajectory_csv,
)
from .plotting import render_eigenspace_svg
from .schur import candidate_exponents, compare_prediction, report_to_json
from .spectral import spectral_data


# largest sup-norm gap at which a measured limit matches its prediction
_MATCH_TOL = 1e-2


class InputError(Exception):
    pass


def _entry_to_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise InputError("boolean matrix entry")
    if isinstance(x, float):
        return Fraction(repr(x))  # decimal reading of the literal
    return Fraction(x)


def _matrix_from_obj(obj) -> TropicalMatrix:
    if isinstance(obj, list):
        rows, semiring = obj, MAX_PLUS
    elif isinstance(obj, dict):
        rows = obj.get("entries")
        semiring = obj.get("semiring", MAX_PLUS)
        if not isinstance(rows, list):
            raise InputError('matrix object must carry an "entries" array of rows')
        if "n" in obj and obj["n"] != len(rows):
            raise InputError(f'declared size {obj["n"]} does not match {len(rows)} rows')
    else:
        raise InputError("matrix must be a JSON array or object")
    if not all(isinstance(row, list) for row in rows):
        raise InputError("every matrix row must be a JSON array")
    try:
        ent = [[_entry_to_rational(x) for x in row] for row in rows]
        return TropicalMatrix.from_rows(ent, semiring)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc


def load_matrix(args) -> TropicalMatrix:
    if args.matrix is not None and args.input is not None:
        raise InputError("pass either --matrix or --input, not both")
    if args.matrix is not None:
        text = args.matrix
    elif args.input is not None:
        try:
            text = Path(args.input).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
    else:
        raise InputError("a matrix is required (--matrix JSON or --input FILE)")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return _matrix_from_obj(obj)


def _trajectory(A: TropicalMatrix, args):
    """A's trajectory along the command's schedule."""
    return normalized_trajectory(A.to_floats(), geometric_schedule(args.k0, args.doublings))


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
    gens = [g.to_floats() for g in spectral_data(A).generators]
    traj = _trajectory(A, args)
    _emit(trajectory_csv(traj, gens), args.out)
    est = estimate_p_infinity(traj)  # EstimateError -> exit 2, CSV already emitted
    sys.stdout.write(json.dumps(est.to_json_dict(), indent=2) + "\n")
    return 0


def cmd_schur(args) -> int:
    M = load_matrix(args)
    if M.semiring == MIN_PLUS:
        B, A = M, M.negate()
    else:
        A, B = M, M.negate()
    report = candidate_exponents(B, normalization=args.normalization)
    traj = _trajectory(A, args)
    est = estimate_p_infinity(traj)
    verdicts = compare_prediction(A, report, est, tol=args.match_tol)
    _emit(report_to_json(report, verdicts), args.out)
    return 0


def cmd_figures(args) -> int:
    rows = figs.figure_report(k0=args.k0, doublings=args.doublings)
    if args.format == "csv":
        lines = ["name,lambda,flag,caption_pinf,estimated_pinf,caption_distance"]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        r["name"],
                        r["lambda"],
                        r["flag"],
                        "(" + " ".join(r["caption_pinf"]) + ")",
                        "(" + " ".join(repr(x) for x in r["estimated_pinf"]) + ")",
                        repr(r["caption_distance"]),
                    ]
                )
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(rows, indent=2), args.out)
    return 0


def cmd_plot(args) -> int:
    A = load_matrix(args)
    if A.n != 3:
        raise InputError(
            "plot requires n = 3: only TP^2 projects to the plane for drawing"
        )
    sd = spectral_data(A)
    traj = _trajectory(A, args)
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
        raise InputError("--seed is required for randomized commands")
    schedule = geometric_schedule(args.k0, args.doublings)
    rng = random.Random(args.seed)
    report: dict = {"seed": args.seed}

    chains, c1_verdicts = [], []
    attempts = 0
    while len(chains) < args.chains and attempts < args.max_attempts:
        attempts += 1
        A = conj.random_matrix(3, grid_step=args.grid_step, seed=rng)
        gens = spectral_data(A).generators
        if len(gens) < 2 or conj.translation_chain(gens) is None:
            continue
        chains.append(A)
        c1_verdicts.append(conj.conjecture1_test(A, tol=args.match_tol, schedule=schedule))
    report["conjecture1"] = _verdict_summary(c1_verdicts)

    bases, c2_verdicts = [], []
    while len(bases) < args.families and attempts < args.max_attempts:
        attempts += 1
        A = conj.random_matrix(3, grid_step=args.grid_step, seed=rng)
        perts = conj.eigenspace_preserving_perturbations(
            A, count=args.perturbations, magnitude=2, seed=rng.randrange(2**32)
        )
        if len(perts) < args.perturbations:
            continue
        bases.append(A)
        c2_verdicts.append(
            conj.conjecture2_test(A, perts, tol=args.match_tol, schedule=schedule)
        )
    report["conjecture2"] = _verdict_summary(c2_verdicts)

    dataset_rows = [
        (A, v.spectra[0], v.estimates[0], args.seed)
        for A, v in zip(chains + bases, c1_verdicts + c2_verdicts)
    ]
    dataset_path = args.dataset or "g_samples.jsonl"
    conj.export_samples(dataset_rows, dataset_path)
    report["dataset"] = {"path": dataset_path, "rows": len(dataset_rows)}

    _emit(json.dumps(report, indent=2), args.out)
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
            sp.add_argument("--k0", type=float, default=DEFAULT_K0)
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
    sp.add_argument("--normalization", choices=["row", "column"], default="row")
    sp.add_argument("--match-tol", dest="match_tol", type=float, default=_MATCH_TOL)
    sp.set_defaults(func=cmd_schur)

    sp = sub.add_parser("figures", help="bundled reference matrices, with caption flags")
    common(sp, matrix=False)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
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
    sp.add_argument("--grid-step", dest="grid_step", default="1")
    sp.add_argument("--match-tol", dest="match_tol", type=float, default=_MATCH_TOL)
    sp.add_argument("--max-attempts", dest="max_attempts", type=int, default=20000)
    sp.add_argument("--dataset", help="path for the JSON-lines sample dataset")
    sp.set_defaults(func=cmd_conjectures)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EstimateError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
