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
from .core import (
    MAX_PLUS,
    MIN_PLUS,
    StarDivergenceError,
    TropicalMatrix,
)
from .perron import (
    EstimateError,
    PerronError,
    estimate_p_infinity,
    geometric_schedule,
    normalized_trajectory,
    trajectory_csv,
)
from .plotting import render_eigenspace_svg
from .schur import candidate_exponents, compare_prediction, report_to_json
from .spectral import spectral_data


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
        if rows is None:
            raise InputError('matrix object must carry an "entries" field')
        if "n" in obj and obj["n"] != len(rows):
            raise InputError(f'declared size {obj["n"]} does not match {len(rows)} rows')
    else:
        raise InputError("matrix must be a JSON array or object")
    try:
        ent = [[_entry_to_rational(x) for x in row] for row in rows]
        return TropicalMatrix.from_rows(ent, semiring)
    except (ValueError, TypeError) as exc:
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


def _schedule(args):
    return geometric_schedule(args.k0, args.doublings)


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
    traj = normalized_trajectory(
        A.to_floats(), _schedule(args), tol=args.tol, max_iter=args.max_iter
    )
    csv_text = trajectory_csv(traj, gens)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
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
    traj = normalized_trajectory(
        A.to_floats(), _schedule(args), tol=args.tol, max_iter=args.max_iter
    )
    est = estimate_p_infinity(traj)
    verdicts = compare_prediction(A, report, est, tol=args.match_tol)
    _emit(report_to_json(report, verdicts), args.out)
    return 0


def cmd_figures(args) -> int:
    rows = figs.figure_report(
        k0=args.k0, doublings=args.doublings, tol=args.tol, max_iter=args.max_iter
    )
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
    traj = normalized_trajectory(
        A.to_floats(), _schedule(args), tol=args.tol, max_iter=args.max_iter
    )
    svg = render_eigenspace_svg(sd, traj, grid=args.grid)
    out = args.out or "eigenspace.svg"
    Path(out).write_text(svg)
    sys.stdout.write(f"wrote {out}\n")
    return 0


def cmd_conjectures(args) -> int:
    if args.seed is None:
        raise InputError("--seed is required for randomized commands")
    schedule = _schedule(args)
    rng = random.Random(args.seed)
    report: dict = {"seed": args.seed}

    dataset_rows = []

    def record(matrix, sd, est):
        dataset_rows.append((matrix, sd, est, args.seed))

    # trajectories draw no randomness, so collecting the chain matrices
    # before solving them consumes rng in the same order
    chains = []
    attempts = 0
    while len(chains) < args.chains and attempts < args.max_attempts:
        attempts += 1
        A = conj.random_matrix(3, grid_step=args.grid_step, seed=rng)
        sd = spectral_data(A)
        if len(sd.generators) < 2:
            continue
        if conj.translation_chain(sd.generators) is None:
            continue
        chains.append((A, sd))
    c1_verdicts = conj.conjecture1_tests(
        [A for A, _ in chains], tol=args.match_tol, schedule=schedule,
        solver_tol=args.tol, max_iter=args.max_iter, seed=args.seed,
    )
    for (A, sd), v in zip(chains, c1_verdicts):
        record(A, sd, v.estimates[0])
    report["conjecture1"] = {
        "count": len(c1_verdicts),
        "all_hold": all(v.holds for v in c1_verdicts),
        "failures": [v.witness for v in c1_verdicts if not v.holds],
    }

    c2_verdicts = []
    built = 0
    while built < args.families and attempts < args.max_attempts:
        attempts += 1
        A = conj.random_matrix(3, grid_step=args.grid_step, seed=rng)
        perts = conj.eigenspace_preserving_perturbations(
            A, count=args.perturbations, magnitude=2, seed=rng.randrange(2**32)
        )
        if len(perts) < args.perturbations:
            continue
        built += 1
        v = conj.conjecture2_test(
            A, perts, tol=args.match_tol, schedule=schedule,
            solver_tol=args.tol, max_iter=args.max_iter, seed=args.seed,
        )
        c2_verdicts.append(v)
        record(A, spectral_data(A), v.estimates[0])
    report["conjecture2"] = {
        "count": len(c2_verdicts),
        "all_hold": all(v.holds for v in c2_verdicts),
        "failures": [v.witness for v in c2_verdicts if not v.holds],
    }

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

    def common(sp, matrix=True):
        if matrix:
            sp.add_argument("--input", help="path to a matrix JSON file")
            sp.add_argument("--matrix", help="inline matrix JSON")
        sp.add_argument("--k0", type=float, default=4.0)
        sp.add_argument("--doublings", type=int, default=12)
        sp.add_argument("--tol", type=float, default=1e-13)
        sp.add_argument("--max-iter", dest="max_iter", type=int, default=10**6)
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("spectrum", help="tropical eigenvalue, classes, generators")
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("perron", help="trajectory CSV plus limit estimate JSON")
    common(sp)
    sp.set_defaults(func=cmd_perron)

    sp = sub.add_parser("schur", help="candidate exponent pipeline report")
    common(sp)
    sp.add_argument("--normalization", choices=["row", "column"], default="row")
    sp.add_argument("--match-tol", dest="match_tol", type=float, default=1e-2)
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
    sp.add_argument("--match-tol", dest="match_tol", type=float, default=1e-2)
    sp.add_argument("--max-attempts", dest="max_attempts", type=int, default=20000)
    sp.add_argument("--dataset", help="path for the JSON-lines sample dataset")
    sp.set_defaults(func=cmd_conjectures)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StarDivergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PerronError, EstimateError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
