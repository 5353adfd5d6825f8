"""Min-plus Schur complements and the candidate-exponent pipeline.

Eliminating a node set C from a min-plus matrix replaces paths through C by
their shortest bypass: Schur(C, A) = A_NN (+) A_NC (A_CC)* A_CN.  Iterating
this on critical node sets produces a level sequence whose eigenvalues
normalize the base matrix; the star of the normalized matrix then yields
candidate exponent vectors for the asymptotic eigenvector analysis.

The normalization of the base matrix is a documented choice (subtract from
row i the eigenvalue of the level at which node i was eliminated); a column
variant is available behind the `normalization` switch.  Candidates are
predictions to be checked, not guarantees: compare_prediction reports for
each one whether it lies in the max-plus eigenspace and whether it matches a
numerically estimated limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .core import (
    MIN_PLUS,
    ProjectivePoint,
    TropicalMatrix,
    _decode,
    _encode,
    in_span,
    kleene_star,
    normalize_projective,
)
from .perron import PinfEstimate
from .spectral import spectral_data


def _require_min_plus(A: TropicalMatrix, what: str):
    if A.semiring != MIN_PLUS:
        raise ValueError(f"{what} requires a min-plus matrix, got {A.semiring}")


def minplus_schur(A: TropicalMatrix, C: set[int] | frozenset[int]) -> TropicalMatrix:
    """Schur complement of the node set C in the min-plus matrix A."""
    _require_min_plus(A, "minplus_schur")
    n = A.n
    C = frozenset(C)
    if not C <= set(range(n)):
        raise ValueError("C contains invalid node indices")
    if C == set(range(n)):
        raise ValueError("cannot eliminate every node")
    if not C:
        return A
    Ns = sorted(set(range(n)) - C)
    Cs = sorted(C)
    Acc = TropicalMatrix(
        tuple(tuple(A.entries[i][j] for j in Cs) for i in Cs), MIN_PLUS
    )
    star = kleene_star(Acc)  # raises StarDivergenceError on a negative cycle in C
    num, den = _encode(A.entries + star.entries)  # one denominator for both
    W, Cstar = num[:n], num[n:]
    # (A_NC (x) C*) (x) A_CN: the best detour into C, through it, and out again
    star_cols = list(zip(*Cstar))
    out_cols = [[W[c][j] for c in Cs] for j in Ns]
    out = []
    for i in Ns:
        into = [W[i][c] for c in Cs]
        through = [min(map(add, into, col)) for col in star_cols]
        out.append(
            [min(W[i][j], min(map(add, through, col))) for j, col in zip(Ns, out_cols)]
        )
    return TropicalMatrix(_decode(out, den), MIN_PLUS)


def min_cycle_mean(A: TropicalMatrix) -> Fraction:
    """Minimum cycle mean of a min-plus matrix, via the max-plus computation on -A."""
    _require_min_plus(A, "min_cycle_mean")
    from .spectral import max_cycle_mean

    return -max_cycle_mean(A.negate())


@dataclass(frozen=True)
class SchurLevel:
    matrix: TropicalMatrix
    node_map: tuple[int, ...]
    eigenvalue: Fraction
    removed_classes: tuple[tuple[int, ...], ...]


def schur_sequence(B: TropicalMatrix) -> list[SchurLevel]:
    """Iterated critical-class elimination.

    Level 0 is B itself.  Each level records its min-plus eigenvalue and the
    critical classes about to be eliminated (in original node indices); the
    next level is the Schur complement of the critical node set in the
    eigenvalue-normalized current matrix.  Terminates once every surviving
    node is critical.
    """
    _require_min_plus(B, "schur_sequence")
    levels: list[SchurLevel] = []
    current = B
    node_map = tuple(range(B.n))
    while True:
        sd = spectral_data(current.negate())  # min-plus critical structure of current
        lam = -sd.lam
        classes_orig = tuple(
            tuple(node_map[i] for i in cls) for cls in sd.classes
        )
        levels.append(
            SchurLevel(
                matrix=current,
                node_map=node_map,
                eigenvalue=lam,
                removed_classes=classes_orig,
            )
        )
        crit = set().union(*(set(c) for c in sd.classes))
        if crit == set(range(current.n)):
            return levels
        normalized = current.shift(-lam)
        survivors = [i for i in range(current.n) if i not in crit]
        current = minplus_schur(normalized, crit)
        node_map = tuple(node_map[i] for i in survivors)


@dataclass(frozen=True)
class Candidate:
    v: tuple[Fraction, ...]
    tp_point: ProjectivePoint


@dataclass(frozen=True)
class SchurReport:
    levels: tuple[SchurLevel, ...]
    b_hat: TropicalMatrix
    candidates: tuple[Candidate, ...]


def candidate_exponents(B: TropicalMatrix, normalization: str = "row") -> SchurReport:
    """Candidate exponent vectors from the star of the normalized base matrix.

    B_hat subtracts from each entry the eigenvalue of the level at which the
    row node (or column node, per `normalization`) was eliminated.  Each
    column v of the min-plus star of B_hat maps to the projective point
    normalize(-v); columns are deduplicated projectively.
    """
    _require_min_plus(B, "candidate_exponents")
    if normalization not in ("row", "column"):
        raise ValueError("normalization must be 'row' or 'column'")
    levels = schur_sequence(B)
    removal_level: dict[int, Fraction] = {}
    for lv in levels:
        for cls in lv.removed_classes:
            for node in cls:
                removal_level[node] = lv.eigenvalue
    n = B.n
    ent = []
    for i in range(n):
        row = []
        for j in range(n):
            key = i if normalization == "row" else j
            row.append(B.entries[i][j] - removal_level[key])
        ent.append(tuple(row))
    b_hat = TropicalMatrix(tuple(ent), MIN_PLUS)
    star = kleene_star(b_hat)  # StarDivergenceError names the offending cycle
    cands: list[Candidate] = []
    seen: set[ProjectivePoint] = set()
    for j in range(n):
        v = star.column(j)
        tp = normalize_projective(tuple(-x for x in v))
        if tp in seen:
            continue
        seen.add(tp)
        cands.append(Candidate(v=v, tp_point=tp))
    return SchurReport(levels=tuple(levels), b_hat=b_hat, candidates=tuple(cands))


@dataclass(frozen=True)
class CandidateVerdict:
    candidate: Candidate
    in_eigenspace: bool
    matches_pinf: bool


def compare_prediction(
    A: TropicalMatrix,
    report: SchurReport,
    pinf: PinfEstimate,
    tol: float,
) -> list[CandidateVerdict]:
    """Check each candidate against the exact eigenspace and the measured limit.

    A is the max-plus matrix whose asymptotics are under study (the negation
    of the pipeline's base matrix).  Membership is exact; the limit match is
    a sup-norm comparison at the given tolerance.
    """
    if A.n != report.b_hat.n or pinf.point.dim != A.n:
        raise ValueError("dimension mismatch")
    gens = spectral_data(A).generators
    out = []
    for cand in report.candidates:
        member = in_span(cand.tp_point, gens)
        diff = max(
            abs(float(c) - p) for c, p in zip(cand.tp_point.coords, pinf.point.coords)
        )
        out.append(
            CandidateVerdict(
                candidate=cand,
                in_eigenspace=member,
                matches_pinf=diff <= tol,
            )
        )
    return out


def report_to_json(report: SchurReport, verdicts: list[CandidateVerdict] | None = None) -> str:
    cand_field = []
    if verdicts is None:
        for c in report.candidates:
            cand_field.append(
                {
                    "v": [str(x) for x in c.v],
                    "tp_point": [str(x) for x in c.tp_point.coords],
                }
            )
    else:
        for v in verdicts:
            cand_field.append(
                {
                    "v": [str(x) for x in v.candidate.v],
                    "tp_point": [str(x) for x in v.candidate.tp_point.coords],
                    "in_eigenspace": v.in_eigenspace,
                    "matches_pinf": v.matches_pinf,
                }
            )
    return json.dumps(
        {
            "levels": [
                {
                    "nodes": list(lv.node_map),
                    "eigenvalue": str(lv.eigenvalue),
                    "removed_classes": [list(c) for c in lv.removed_classes],
                }
                for lv in report.levels
            ],
            "candidates": cand_field,
        },
        indent=2,
    )
