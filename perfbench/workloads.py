"""The four benchmark workloads: seeded inputs, the timed call, the output check.

Each workload hands tropasym only inputs it generated itself from the seed,
and checks every output with code of its own (exact rational arithmetic or a
numpy Floyd-Warshall star), so a defect in the package cannot vouch for
itself.  Calls go through module attributes looked up at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """The call returned, but its output is wrong."""


def maxplus_star(A) -> np.ndarray:
    """Kleene star of a zero-diagonal max-plus matrix with no positive cycle.

    Floyd-Warshall; exact on the half-integer grid, where every partial sum
    is a small multiple of 1/2, which a double represents exactly.
    """
    S = np.array(A, dtype=float)
    for k in range(S.shape[0]):
        np.maximum(S, S[:, k, None] + S[None, k, :], out=S)
    return S


def span_distance(x, G) -> float:
    """Sup-norm distance from x to its max-plus projection on the columns of G."""
    x = np.asarray(x, dtype=float)
    x = x - x[0]
    G = np.asarray(G, dtype=float)
    lam = (x[:, None] - G).min(axis=0)
    proj = (lam[None, :] + G).max(axis=1)
    return float(np.abs(x - (proj - proj[0])).max())


def membership_bound(error_bound: float) -> float:
    """Criterion 2's tolerance for a limit estimate on the eigenspace."""
    return 10.0 * error_bound + 1e-3


class Workload:
    """One closed-loop workload: `call` is timed, `check` is not."""

    def __init__(self, tp, seed: int, workdir: Path):
        self.tp = tp
        self.seed = seed
        self.workdir = workdir

    def warm_up(self):
        raise NotImplementedError

    def inputs(self):
        """Endless input stream; two streams from one workload are identical."""
        raise NotImplementedError

    def call(self, x):
        raise NotImplementedError

    def check(self, x, out):
        raise NotImplementedError

    def finish(self) -> list[str | None]:
        """Checks made once after the timed loop; one entry per extra op, None if it passed."""
        return []


class Campaign(Workload):
    """`trop-asym conjectures` on seeds drawn from the workload seed."""

    CHAINS, FAMILIES, PERTURBATIONS = 4, 1, 3

    def __init__(self, tp, seed, workdir):
        super().__init__(tp, seed, workdir)
        self.report = workdir / "report.json"
        self.dataset = workdir / "dataset.jsonl"
        self.first = None

    def _argv(self, s, chains, families, perturbations):
        return [
            "conjectures", "--seed", str(s), "--chains", str(chains),
            "--families", str(families), "--perturbations", str(perturbations),
            "--out", str(self.report), "--dataset", str(self.dataset),
        ]

    def warm_up(self):
        self.tp.cli.main(self._argv(0, 1, 1, 1))

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            yield rng.randrange(2**31)

    def call(self, s):
        return self.tp.cli.main(
            self._argv(s, self.CHAINS, self.FAMILIES, self.PERTURBATIONS)
        )

    def check(self, s, code):
        if code != 0:
            raise CheckFailed(f"conjectures --seed {s} exited with {code}")
        report_bytes = self.report.read_bytes()
        dataset_bytes = self.dataset.read_bytes()
        if self.first is None:
            self.first = (s, report_bytes, dataset_bytes)
        report = json.loads(report_bytes)
        for key, count in (("conjecture1", self.CHAINS), ("conjecture2", self.FAMILIES)):
            if report[key]["all_hold"] is not True or report[key]["count"] != count:
                raise CheckFailed(f"seed {s}: {key} = {report[key]}")
        rows = dataset_bytes.decode().splitlines()
        if len(rows) != self.CHAINS + self.FAMILIES or report["dataset"]["rows"] != len(rows):
            raise CheckFailed(f"seed {s}: {len(rows)} dataset rows")
        for line in rows:
            row = json.loads(line)
            G = np.array([[float(Fraction(c)) for c in g] for g in row["generators"]]).T
            dist = span_distance(row["pinf"], G)
            if not dist <= membership_bound(row["error_bound"]):
                raise CheckFailed(f"seed {s}: pinf off the eigenspace by {dist:.3e}")

    def finish(self):
        if self.first is None:
            return []
        s, report_bytes, dataset_bytes = self.first
        code = self.call(s)
        same = (
            code == 0
            and self.report.read_bytes() == report_bytes
            and self.dataset.read_bytes() == dataset_bytes
        )
        return [None if same else f"re-run of seed {s} is not byte-identical"]


def grid_matrix(tp, n: int, rng: random.Random):
    """Zero diagonal, off-diagonal entries on the 1/2 grid in [-6, 2]."""
    rows = [
        [Fraction(0) if i == j else Fraction(rng.randint(-12, 4), 2) for j in range(n)]
        for i in range(n)
    ]
    return tp.TropicalMatrix.from_rows(rows)


class Exact(Workload):
    """`spectral_data(A)` plus `candidate_exponents(-A)`, all in Fractions."""

    SIZES = (8, 10, 12, 14, 16, 18, 20)

    def warm_up(self):
        self.call(grid_matrix(self.tp, 6, random.Random(0)))

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            sizes = list(self.SIZES)
            rng.shuffle(sizes)
            for n in sizes:
                yield grid_matrix(self.tp, n, rng)

    def call(self, A):
        sd = self.tp.spectral_data(A)
        try:
            self.tp.candidate_exponents(A.negate())
        except self.tp.StarDivergenceError:
            pass  # a known defect, traced as schur.candidate_exponents.diverged_frac
        return sd

    def check(self, A, sd):
        if not sd.generators:
            raise CheckFailed("no eigenvector")
        rows = A.entries
        for g in sd.generators:
            v = g.coords
            for i, row in enumerate(rows):
                if max(a + x for a, x in zip(row, v)) != sd.lam + v[i]:
                    raise CheckFailed(f"n={A.n}: generator {v} fails row {i}")


class Perron(Workload):
    """A full `normalized_trajectory` plus `estimate_p_infinity` at n >= 24."""

    SIZES = (24, 32, 40, 48, 56, 64, 72)

    def __init__(self, tp, seed, workdir):
        super().__init__(tp, seed, workdir)
        self.schedule = tp.geometric_schedule()

    @staticmethod
    def matrix(n: int, rng: np.random.Generator) -> np.ndarray:
        """Zero diagonal, off-diagonal entries on the 1/2 grid in [-6, -1/2]."""
        A = -0.5 * rng.integers(1, 13, size=(n, n)).astype(float)
        np.fill_diagonal(A, 0.0)
        return A

    def warm_up(self):
        self.call(self.matrix(8, np.random.default_rng(0)))

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for n in rng.permutation(self.SIZES):
                yield self.matrix(int(n), rng)

    def call(self, A):
        traj = self.tp.normalized_trajectory(A, self.schedule)
        return traj, self.tp.estimate_p_infinity(traj)

    def check(self, A, out):
        traj, est = out
        n = A.shape[0]
        if traj.failures:
            raise CheckFailed(f"n={n}: {len(traj.failures)} failed samples")
        # lambda = 0 here: rho(exp(kA)) lies in [1, n], residual r certifies lambda_k to r
        for s in traj.samples:
            slack = s.residual + 1e-12
            if not -slack <= s.log_rho_over_k <= math.log(n) / s.k + slack:
                raise CheckFailed(f"n={n}: lambda_k = {s.log_rho_over_k!r} at k={s.k}")
        # every node is critical (self-loops of weight 0, all other cycles < 0),
        # so the eigenspace is spanned by all columns of the star
        dist = span_distance(est.point.coords, maxplus_star(A))
        if not dist <= membership_bound(est.error_bound):
            raise CheckFailed(f"n={n}: estimate off the eigenspace by {dist:.3e}")


class Paper(Workload):
    """`trop-asym plot` on the bundled figure cases, checked by SVG digest."""

    GRID = 160

    def __init__(self, tp, seed, workdir):
        super().__init__(tp, seed, workdir)
        cases = json.loads((HERE / "paper_cases.json").read_text())
        if cases["grid"] != self.GRID:
            raise ValueError("paper_cases.json was recorded at another grid")
        self.digests = {}
        for name, case in cases["cases"].items():
            (workdir / f"{name}.json").write_text(json.dumps(case["matrix"]))
            self.digests[name] = case["sha256"]
        self.svg = workdir / "plot.svg"

    def _plot(self, name, grid):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.tp.cli.main([
                "plot", "--input", str(self.workdir / f"{name}.json"),
                "--out", str(self.svg), "--grid", str(grid),
            ])

    def warm_up(self):
        self._plot(min(self.digests), 8)

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            names = sorted(self.digests)
            rng.shuffle(names)
            yield from names

    def call(self, name):
        return self._plot(name, self.GRID)

    def check(self, name, code):
        if code != 0:
            raise CheckFailed(f"plot {name} exited with {code}")
        digest = hashlib.sha256(self.svg.read_bytes()).hexdigest()
        if digest != self.digests[name]:
            raise CheckFailed(f"plot {name}: SVG digest {digest} differs")


WORKLOADS = {"campaign": Campaign, "exact": Exact, "perron": Perron, "paper": Paper}
