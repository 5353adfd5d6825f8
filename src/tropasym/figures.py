"""Bundled reference matrices and the caption-consistency report.

The matrices live in a versioned data file so that any discrepancy finding
can be audited against the exact inputs.  A published caption value is
flagged CONSISTENT only when it passes exact span membership against the
derived generators; otherwise it is DISCREPANT and the numerically derived
limit is reported alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .core import MAX_PLUS, ProjectivePoint, TropicalMatrix, in_span, normalize_projective
from .perron import estimate_p_infinity, normalized_trajectory
from .spectral import spectral_data

CONSISTENT = "CONSISTENT"
DISCREPANT = "DISCREPANT"


@dataclass(frozen=True)
class FigureCase:
    name: str
    matrix: TropicalMatrix
    caption_pinf: ProjectivePoint
    predicted_candidate: ProjectivePoint | None = None


def load_cases() -> list[FigureCase]:
    text = resources.files("tropasym.data").joinpath("figures.json").read_text()
    obj = json.loads(text)
    cases = []
    for c in obj["cases"]:
        cand = c.get("predicted_candidate")
        cases.append(
            FigureCase(
                name=c["name"],
                matrix=TropicalMatrix.from_rows(c["matrix"], MAX_PLUS),
                caption_pinf=normalize_projective(c["caption_pinf"]),
                predicted_candidate=normalize_projective(cand) if cand else None,
            )
        )
    return cases


def figure_report(schedule: Sequence[float]) -> list[dict]:
    """One row per bundled case: spectral data, measured limit, caption flag."""
    rows = []
    for case in load_cases():
        sd = spectral_data(case.matrix)
        caption_ok = in_span(case.caption_pinf, sd.generators)
        traj = normalized_trajectory(case.matrix.to_floats(), schedule)
        est = estimate_p_infinity(traj)
        caption_float = [float(x) for x in case.caption_pinf.coords]
        row = {
            "name": case.name,
            **sd.to_json_dict(),
            "caption_pinf": [str(x) for x in case.caption_pinf.coords],
            "estimated_pinf": list(est.point.coords),
            "error_bound": est.error_bound,
            "caption_distance": max(
                abs(a - b) for a, b in zip(caption_float, est.point.coords)
            ),
            "flag": CONSISTENT if caption_ok else DISCREPANT,
        }
        if case.predicted_candidate is not None:
            cand = case.predicted_candidate
            row["predicted_candidate"] = [str(x) for x in cand.coords]
            row["candidate_in_eigenspace"] = in_span(cand, sd.generators)
            row["candidate_distance_to_pinf"] = max(
                abs(float(c) - p) for c, p in zip(cand.coords, est.point.coords)
            )
        rows.append(row)
    return rows
