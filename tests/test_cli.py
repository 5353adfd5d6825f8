import hashlib
import inspect
import json
import xml.etree.ElementTree as ET

import pytest

from tropasym import (
    TropicalMatrix,
    geometric_schedule,
    normalized_trajectory,
    spectral_data,
)
from tropasym.cli import build_parser, main
from tropasym.figures import figure_report
from tropasym.plotting import render_eigenspace_svg

FIG2 = '[["0","-2.5","-0.5"],["-1","0","-1.5"],["-1","-1","0"]]'
FIG6 = '[["0","-3","-2"],["1","0","-1"],["2","1","0"]]'
FIG7 = '[["0","1","3"],["-5","0","1"],["-6","-1","0"]]'
CEX = '[["0","-3","-4"],["-1","0","-2"],["-1","-1","0"]]'


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_figure7(self, capsys):
        code, out, _ = run(["spectrum", "--matrix", FIG7], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda"] == "0"
        assert obj["classes"] == [[0], [1, 2]]
        assert obj["generators"] == [["0", "-5", "-6"], ["0", "-2", "-3"]]

    def test_scalar_matrix(self, capsys):
        code, out, _ = run(
            ["spectrum", "--matrix", '{"n": 1, "entries": [["0.75"]], "semiring": "max-plus"}'],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda"] == "3/4"
        assert obj["generators"] == [["0"]]

    def test_malformed_json(self, capsys):
        code, _, err = run(["spectrum", "--matrix", '[["0",]'], capsys)
        assert code == 1
        assert "line" in err and "column" in err

    def test_non_square(self, capsys):
        code, _, err = run(["spectrum", "--matrix", '[["0","1"]]'], capsys)
        assert code == 1

    def test_size_mismatch(self, capsys):
        code, _, err = run(
            ["spectrum", "--matrix", '{"n": 3, "entries": [["0"]], "semiring": "max-plus"}'],
            capsys,
        )
        assert code == 1
        assert "declared size" in err

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(FIG7)
        code, out, _ = run(["spectrum", "--input", str(p)], capsys)
        assert code == 0

    def test_missing_matrix(self, capsys):
        code, _, err = run(["spectrum"], capsys)
        assert code == 1

    def test_entries_not_rows(self, capsys):
        # a string or object row would otherwise be read as its characters or keys
        for matrix in (
            '{"n": 3, "entries": 5}',
            '[["0","1"],"00"]',
            '{"entries": [["0","1"],{"3":1,"4":2}]}',
        ):
            code, _, err = run(["spectrum", "--matrix", matrix], capsys)
            assert code == 1
            assert err.startswith("error: ")

    def test_solver_options_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--matrix", FIG7, "--doublings", "3"])
        assert exc.value.code == 2
        # the solver's tolerance is fixed, so no command takes one
        with pytest.raises(SystemExit) as exc:
            main(["perron", "--matrix", FIG7, "--tol", "1e-3"])
        assert exc.value.code == 2

    def test_zero_denominator(self, capsys):
        code, _, err = run(["spectrum", "--matrix", '[["1/0"]]'], capsys)
        assert code == 1
        assert err.startswith("error: ")


class TestPerron:
    def test_figure2(self, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        code, out, _ = run(
            ["perron", "--matrix", FIG2, "--out", str(csv_path)], capsys
        )
        assert code == 0
        est = json.loads(out)
        assert max(
            abs(a - b) for a, b in zip(est["point"], [0.0, -0.25, -0.25])
        ) < 1e-2
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "k", "lambda_k", "coord_1", "coord_2", "coord_3",
            "residual", "iterations", "span_distance",
        ]
        assert len(lines) == 1 + 13
        # membership distance column converges toward zero
        last = lines[-1].split(",")
        assert float(last[-1]) < 1e-2

    def test_symmetric_rows_zero(self, tmp_path, capsys):
        csv_path = tmp_path / "sym.csv"
        code, out, _ = run(
            ["perron", "--matrix", '[["0","-1"],["-1","0"]]', "--out", str(csv_path),
             "--doublings", "6"],
            capsys,
        )
        assert code == 0
        for line in csv_path.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert abs(float(cells[2])) == 0.0 and abs(float(cells[3])) < 1e-12

    def test_non_finite_k0_is_an_input_error(self, capsys):
        code, _, err = run(["perron", "--matrix", FIG2, "--k0", "nan"], capsys)
        assert code == 1
        assert "finite" in err

    def test_overflowing_schedule_is_an_input_error(self, capsys):
        code, _, err = run(["perron", "--matrix", FIG2, "--doublings", "1030"], capsys)
        assert code == 1
        assert "finite" in err

    def test_overflowing_kA_is_an_input_error(self, capsys):
        # 2^14 * 1e305 is beyond double range at the schedule's last k
        code, _, err = run(["perron", "--matrix", "[[0, 1e305], [-1, 0]]"], capsys)
        assert code == 1
        assert "overflows" in err and "k = 16384.0" in err


class TestFigures:
    def test_flags(self, capsys):
        code, out, _ = run(["figures"], capsys)
        assert code == 0
        rows = json.loads(out)
        flags = {r["name"]: r["flag"] for r in rows}
        assert flags == {
            "figure-2": "CONSISTENT",
            "figure-3": "CONSISTENT",
            "figure-4": "CONSISTENT",
            "figure-6": "DISCREPANT",
            "figure-7": "CONSISTENT",
            "figure-8": "DISCREPANT",
            "figure-9": "DISCREPANT",
            "counterexample": "DISCREPANT",
        }
        cex = next(r for r in rows if r["name"] == "counterexample")
        assert cex["candidate_in_eigenspace"] is True
        assert cex["candidate_distance_to_pinf"] > 0.1

    def test_csv_format(self, capsys):
        code, out, _ = run(["figures", "--format", "csv", "--doublings", "8"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("name,lambda,flag")


class TestPlot:
    def test_figure7_svg(self, tmp_path, capsys):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run(
            ["plot", "--matrix", FIG7, "--out", str(out_path), "--grid", "80",
             "--doublings", "8"],
            capsys,
        )
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        rects = root.findall(".//s:rect", ns)
        assert len(rects) > 1  # shaded region cells present
        circles = root.findall(".//s:circle", ns)
        assert len(circles) >= 2  # generators plus trajectory points

    def test_svg_version_and_single_root(self, tmp_path, capsys):
        out_path = tmp_path / "v.svg"
        code, _, _ = run(
            ["plot", "--matrix", FIG7, "--out", str(out_path), "--grid", "40",
             "--doublings", "6"],
            capsys,
        )
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        assert root.attrib.get("version") == "1.1"

    def test_single_generator_region_degenerates(self, tmp_path, capsys):
        # single critical class: the whole eigenspace is one projective point
        out_path = tmp_path / "single.svg"
        code, _, _ = run(
            ["plot", "--matrix", FIG6, "--out", str(out_path), "--grid", "100",
             "--doublings", "8"],
            capsys,
        )
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        ns = {"s": "http://www.w3.org/2000/svg"}
        region = [r for r in root.findall(".//s:g", ns) if r.get("fill") == "#9db8d9"]
        cells = region[0].findall("s:rect", ns)
        assert 1 <= len(cells) <= 4  # a single small cluster of cells

    def test_dimension_restriction(self, capsys):
        code, _, err = run(
            ["plot", "--matrix", '[["0","-1"],["-1","0"]]'], capsys
        )
        assert code == 1
        assert "TP^2" in err


class TestConjecturesCommand:
    ARGS = [
        "conjectures", "--chains", "2", "--families", "1", "--perturbations", "2",
        "--doublings", "10", "--max-attempts", "3000",
    ]

    def test_requires_seed(self, capsys):
        code, _, err = run(self.ARGS, capsys)
        assert code == 1
        assert "--seed" in err

    def test_deterministic_and_holds(self, tmp_path, capsys):
        ds = tmp_path / "g.jsonl"
        args = self.ARGS + ["--seed", "42", "--dataset", str(ds)]
        code1, out1, _ = run(args, capsys)
        data1 = ds.read_text()
        code2, out2, _ = run(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert ds.read_text() == data1
        report = json.loads(out1)
        assert report["conjecture1"]["count"] == 2
        assert report["conjecture1"]["all_hold"] is True
        assert report["conjecture2"]["all_hold"] is True
        assert report["dataset"]["rows"] >= 3

    def test_each_tested_matrix_solved_once(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        import tropasym.cli
        import tropasym.conjectures
        from tropasym.perron import normalized_trajectory

        solved = []

        def counting(A, *args, **kwargs):
            solved.append(np.asarray(A, dtype=float).tobytes())
            return normalized_trajectory(A, *args, **kwargs)

        # the conjecture tests solve the trajectories; the CLI must not solve again
        monkeypatch.setattr(tropasym.conjectures, "normalized_trajectory", counting)
        monkeypatch.setattr(tropasym.cli, "normalized_trajectory", counting)
        ds = tmp_path / "g.jsonl"
        code, _, _ = run(self.ARGS + ["--seed", "42", "--dataset", str(ds)], capsys)
        assert code == 0
        # chains + families * (perturbations + 1) = 2 + 1 * (2 + 1) matrices
        assert len(solved) == 5
        assert len(set(solved)) == 5

    def test_chain_spectra_come_from_the_filter_cache(self, tmp_path, monkeypatch, capsys):
        import tropasym.conjectures
        from tropasym.spectral import spectral_data as cached

        in_test, lookups = False, []

        def recording(A):
            hits = cached.cache_info().hits
            sd = cached(A)
            if in_test:
                lookups.append(cached.cache_info().hits > hits)
            return sd

        conjecture1_test = tropasym.conjectures.conjecture1_test

        def flagged(*args, **kwargs):
            nonlocal in_test
            in_test = True
            try:
                return conjecture1_test(*args, **kwargs)
            finally:
                in_test = False

        # each chain is tested right after the CLI's filter computed its spectrum
        monkeypatch.setattr(tropasym.conjectures, "spectral_data", recording)
        monkeypatch.setattr(tropasym.conjectures, "conjecture1_test", flagged)
        ds = tmp_path / "g.jsonl"
        code, _, _ = run(self.ARGS + ["--seed", "42", "--dataset", str(ds)], capsys)
        assert code == 0
        assert lookups == [True, True]

    def test_dataset_rows_reuse_the_verdicts_spectra(self, tmp_path, monkeypatch, capsys):
        import tropasym.cli

        seen = []

        def recording(A):
            seen.append(A)
            return spectral_data(A)

        # the CLI filters chain candidates itself; family rows come from verdicts
        monkeypatch.setattr(tropasym.cli, "spectral_data", recording)
        ds = tmp_path / "g.jsonl"
        code, _, _ = run(self.ARGS + ["--seed", "42", "--dataset", str(ds)], capsys)
        assert code == 0
        rows = [json.loads(line) for line in ds.read_text().splitlines()]
        base = TropicalMatrix.from_rows(rows[-1]["matrix"])
        assert rows[-1]["generators"] == spectral_data(base).to_json_dict()["generators"]
        assert base not in seen

    def test_zero_counts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # default dataset file lands here
        code, out, _ = run(
            ["conjectures", "--chains", "0", "--families", "0", "--seed", "1"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["conjecture1"]["count"] == 0
        assert report["conjecture2"]["count"] == 0
        assert (tmp_path / "g_samples.jsonl").exists()


class TestSchurCommand:
    def test_counterexample_report(self, capsys):
        code, out, _ = run(["schur", "--matrix", CEX, "--doublings", "10"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["levels"][0]["eigenvalue"] == "0"
        assert len(obj["candidates"]) == 3
        for cand in obj["candidates"]:
            assert cand["in_eigenspace"] is True
            assert cand["matches_pinf"] is False

    def test_solves_a_once(self, spectral_runs, capsys):
        code, _, _ = run(["schur", "--matrix", CEX, "--doublings", "6"], capsys)
        assert code == 0
        assert spectral_runs.count(TropicalMatrix.from_rows(json.loads(CEX))) == 1

    def test_divergent_star_is_an_input_error(self, capsys):
        matrix = '[["0","0","1/2"],["-11/2","0","-2"],["2","3/2","0"]]'
        code, out, err = run(["schur", "--matrix", matrix], capsys)
        assert (code, out) == (1, "")
        assert err == "error: Kleene star diverges: negative cycle 1->1\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pinned_outputs(tmp_path, capsys) -> dict[str, str]:
    """Digests of fixed-seed CLI outputs that contain no float text, and of region SVGs."""
    out = {}
    for name, matrix in (("FIG2", FIG2), ("FIG7", FIG7), ("CEX", CEX)):
        code, text, _ = run(["spectrum", "--matrix", matrix], capsys)
        assert code == 0
        out[f"spectrum {name}"] = _sha(text)
        for norm in ("row", "column"):
            code, text, _ = run(
                ["schur", "--matrix", matrix, "--normalization", norm], capsys
            )
            assert code == 0
            out[f"schur {norm} {name}"] = _sha(text)
    for name, matrix in (("FIG2", FIG2), ("FIG6", FIG6), ("FIG7", FIG7), ("CEX", CEX)):
        sd = spectral_data(TropicalMatrix.from_rows(json.loads(matrix)))
        out[f"region {name}"] = _sha(render_eigenspace_svg(sd, None, 160))
    ds = tmp_path / "pinned.jsonl"
    code, text, _ = run(
        ["conjectures", "--seed", "42", "--chains", "20", "--families", "5",
         "--perturbations", "3", "--dataset", str(ds)],
        capsys,
    )
    assert code == 0
    report = json.loads(text)
    report["dataset"]["path"] = "<dataset>"
    out["conjectures report"] = _sha(json.dumps(report, indent=2))
    rows = [json.loads(line) for line in ds.read_text().splitlines()]
    exact = [{k: r[k] for k in ("matrix", "generators", "seed")} for r in rows]
    out["conjectures dataset"] = _sha(json.dumps(exact))
    return out


class TestParserDefaults:
    SOLVER_COMMANDS = ["perron", "schur", "figures", "plot", "conjectures"]

    @staticmethod
    def _defaults(command):
        return vars(build_parser().parse_args([command]))

    @staticmethod
    def _signature_defaults(fn):
        return {
            name: p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty
        }

    def test_solver_options_default_to_the_library(self):
        library = {
            **self._signature_defaults(geometric_schedule),
            **self._signature_defaults(normalized_trajectory),
        }
        assert library == self._signature_defaults(figure_report)
        for command in self.SOLVER_COMMANDS:
            d = self._defaults(command)
            assert {name: d[name] for name in library} == library, command

    def test_match_tol_has_one_default(self):
        assert self._defaults("schur")["match_tol"] == self._defaults("conjectures")["match_tol"]


class TestFixedSeedOutputs:
    """Byte-level pins of the exact (rational and boolean) CLI outputs.

    A changed digest means a report changed.  Float text is left out:
    numpy's exp/log may differ in the last ulp between CPUs.  The region-only
    SVGs (no trajectory) are pinned: their coordinates come from rational
    generators and correctly rounded float arithmetic, not from exp/log.
    """

    PINNED = {
        "spectrum FIG2": "36a253c34051ce98",
        "schur row FIG2": "f64fb8ea1cb04f0a",
        "schur column FIG2": "f64fb8ea1cb04f0a",
        "spectrum FIG7": "2425d122e48ea00a",
        "schur row FIG7": "0b9e1784fe614d4c",
        "schur column FIG7": "0b9e1784fe614d4c",
        "spectrum CEX": "f85486630efa0ff5",
        "schur row CEX": "b0f26282c7e3efc8",
        "schur column CEX": "b0f26282c7e3efc8",
        "conjectures report": "68fef7875211c8e3",
        "conjectures dataset": "93ef3419f2a93b40",
        "region FIG2": "70f916e1f82ca70a",
        "region FIG6": "24f69c6f34367279",
        "region FIG7": "31375aefca74ab6d",
        "region CEX": "81cbb5241769d7e5",
    }

    def test_outputs_unchanged(self, tmp_path, capsys):
        assert pinned_outputs(tmp_path, capsys) == self.PINNED
