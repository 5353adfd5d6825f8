import hashlib
import inspect
import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
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
FIG4 = '[["0","-1","-1"],["-4","0","-1"],["-1","-1","-4"]]'
FIG6 = '[["0","-3","-2"],["1","0","-1"],["2","1","0"]]'
FIG7 = '[["0","1","3"],["-5","0","1"],["-6","-1","0"]]'
CEX = '[["0","-3","-4"],["-1","0","-2"],["-1","-1","0"]]'


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv in (
        ["spectrum", "--matrix", FIG7, "--out", str(missing / "x.json")],
        ["plot", "--matrix", FIG7, "--doublings", "1", "--grid", "8",
         "--out", str(missing / "x.svg")],
        ["conjectures", "--seed", "1", "--chains", "1", "--families", "0",
         "--doublings", "1", "--dataset", str(missing / "x.jsonl")],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and str(missing) in err, argv
    assert list(tmp_path.iterdir()) == []


def test_missing_output_directory_is_refused_before_solving(tmp_path, monkeypatch, capsys):
    import tropasym.cli
    import tropasym.conjectures

    def no_solve(*args, **kwargs):
        raise AssertionError("an output the command cannot write must be refused first")

    monkeypatch.setattr(tropasym.cli, "normalized_trajectory", no_solve)
    monkeypatch.setattr(tropasym.conjectures, "normalized_trajectory", no_solve)
    missing = tmp_path / "missing"
    for argv in (
        ["plot", "--matrix", FIG7, "--doublings", "1", "--out", str(missing / "x.svg")],
        ["perron", "--matrix", FIG2, "--doublings", "1", "--out", str(missing / "x.csv")],
        ["conjectures", "--seed", "1", "--chains", "1", "--families", "0", "--doublings", "1",
         "--dataset", str(tmp_path / "ds.jsonl"), "--out", str(missing / "r.json")],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and str(missing) in err, argv
    assert list(tmp_path.iterdir()) == []


def test_bad_solver_options_are_refused_before_solving(monkeypatch, capsys):
    import tropasym.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a bad option must be refused before any solving")

    monkeypatch.setattr(tropasym.cli, "normalized_trajectory", no_solve)
    monkeypatch.setattr(tropasym.cli, "candidate_exponents", no_solve)
    # the schur star of this matrix diverges, which must not mask the bad schedule
    divergent = '[["1/3","2/3"],["-1/2","0"]]'
    for argv, message in (
        (["plot", "--matrix", FIG7, "--grid", "1"], "grid must be at least 2"),
        (["plot", "--matrix", FIG7, "--doublings", "-1"], "schedule values must be finite"),
        (["perron", "--matrix", FIG2, "--doublings", "-1"], "schedule values must be finite"),
        (["schur", "--matrix", divergent, "--doublings", "-1"], "schedule values must be finite"),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: {message}"), argv


def test_report_over_its_own_dataset_is_refused_before_solving(tmp_path, monkeypatch, capsys):
    import tropasym.cli
    import tropasym.conjectures

    def no_solve(*args, **kwargs):
        raise AssertionError("a report that would overwrite the dataset must be refused first")

    monkeypatch.setattr(tropasym.cli, "normalized_trajectory", no_solve)
    monkeypatch.setattr(tropasym.conjectures, "normalized_trajectory", no_solve)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
    for paths in (
        ["--out", "r.jsonl", "--dataset", "r.jsonl"],
        ["--out", str(tmp_path / "r.jsonl"), "--dataset", "r.jsonl"],
        ["--out", "link/r.jsonl", "--dataset", "r.jsonl"],
        ["--out", "g_samples.jsonl"],  # the default dataset
    ):
        code, out, err = run(
            ["conjectures", "--seed", "1", "--chains", "1", "--families", "0",
             "--doublings", "1", *paths],
            capsys,
        )
        assert (code, out) == (1, ""), paths
        assert err.startswith("error: --out and --dataset are one file"), paths
    assert [p.name for p in tmp_path.iterdir()] == ["link"]


def test_failed_report_write_removes_the_dataset(tmp_path, capsys):
    # the report path is an existing directory, so only the write itself fails
    (tmp_path / "r.json").mkdir()
    code, out, err = run(
        ["conjectures", "--seed", "1", "--chains", "1", "--families", "0", "--doublings", "1",
         "--dataset", str(tmp_path / "ds.jsonl"), "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "r.json" in err
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


class TestSpectrum:
    def test_figure7(self, capsys):
        code, out, _ = run(["spectrum", "--matrix", FIG7], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda"] == "0"
        assert obj["classes"] == [[0], [1, 2]]
        assert obj["generators"] == [["0", "-5", "-6"], ["0", "-2", "-3"]]

    def test_scalar_matrix(self, capsys):
        code, out, _ = run(["spectrum", "--matrix", '[["0.75"]]'], capsys)
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

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(FIG7)
        code, out, _ = run(["spectrum", "--input", str(p)], capsys)
        assert code == 0

    def test_missing_matrix(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(FIG7)
        for argv in (
            ["spectrum"],
            ["spectrum", "--matrix", FIG7, "--input", str(p)],  # two sources
            ["spectrum", "--input", str(tmp_path / "absent.json")],  # unreadable
        ):
            code, out, err = run(argv, capsys)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: ")

    def test_entries_not_rows(self, capsys):
        # a string or object row would otherwise be read as its characters or
        # keys, and a boolean entry as 0 or 1; a matrix is an array of rows of
        # numbers, never an object
        for matrix in (
            '[[true, 0], [0, 0]]',
            '[["0","1"],"00"]',
            '[["0","1"],{"3":1,"4":2}]',
            '{"n": 3, "entries": 5}',
            '{"entries": [["0"]]}',
            '{"n": 1, "entries": [["0.75"]], "semiring": "min-plus"}',
        ):
            code, _, err = run(["spectrum", "--matrix", matrix], capsys)
            assert code == 1
            assert err.startswith("error: ")

    def test_solver_options_rejected(self, capsys):
        for argv in (
            ["spectrum", "--matrix", FIG7, "--doublings", "3"],
            # the solver's tolerance is fixed, so no command takes one
            ["perron", "--matrix", FIG7, "--tol", "1e-3"],
            # one schedule start, normalization, match tolerance, grid and
            # attempt budget
            ["perron", "--matrix", FIG7, "--k0", "8"],
            ["schur", "--matrix", FIG7, "--normalization", "row"],
            ["schur", "--matrix", FIG7, "--match-tol", "0.1"],
            ["figures", "--format", "csv"],
            ["conjectures", "--seed", "1", "--grid-step", "1"],
            ["conjectures", "--seed", "1", "--match-tol", "0.1"],
            ["conjectures", "--seed", "1", "--max-attempts", "10"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

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

    def test_overflowing_schedule_is_an_input_error(self, capsys):
        for doublings in ("1022", "1030"):
            code, _, err = run(["perron", "--matrix", FIG2, "--doublings", doublings], capsys)
            assert code == 1
            assert "finite" in err

    def test_overflowing_kA_is_an_input_error(self, capsys):
        for argv, k in (
            # 2^14 * 1e305 is beyond double range at the schedule's last k
            (["perron", "--matrix", "[[0, 1e305], [-1, 0]]"], "16384.0"),
            # 8 * 1e307 is within double range, but the solver's sums are not
            (["perron", "--matrix", "[[0,-1e307,3],[1e307,0,-2e306],[1,-1e307,0]]",
              "--doublings", "1"], "8.0"),
        ):
            code, out, err = run(argv, capsys)
            assert (code, out) == (1, "")
            assert "overflows" in err and f"k = {k}" in err

    def test_one_sample_is_a_numerical_failure(self, tmp_path, capsys):
        # a single sample has no doubling pair to extrapolate from; the CSV
        # is written before the estimate fails
        csv_path = tmp_path / "traj.csv"
        code, out, err = run(
            ["perron", "--matrix", "[[0,-1],[-2,0]]", "--doublings", "0",
             "--out", str(csv_path)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == (
            "numerical failure: need at least two successful samples at k and 2k\n"
        )
        assert len(csv_path.read_text().splitlines()) == 1 + 1


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

    def test_schedule_options_reach_the_report(self, capsys):
        code, out, _ = run(["figures", "--doublings", "3"], capsys)
        assert code == 0
        assert out == json.dumps(figure_report(geometric_schedule(3)), indent=2) + "\n"


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
        "--doublings", "10",
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

    def test_chain_spectra_are_solved_once(self, tmp_path, spectral_runs, capsys):
        # the exact screen alone admits a chain, so conjecture1_test solves its
        # spectrum, once, and nothing else in the campaign does
        ds = tmp_path / "g.jsonl"
        code, _, _ = run(self.ARGS + ["--seed", "42", "--dataset", str(ds)], capsys)
        assert code == 0
        rows = [json.loads(line) for line in ds.read_text().splitlines()]
        for row in rows[:2]:
            assert spectral_runs.count(TropicalMatrix.from_rows(row["matrix"])) == 1

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

    def test_short_perturbation_family_is_silent(self, tmp_path, capsys):
        # seed 8 draws a base with no eigenspace-preserving perturbation, which
        # the campaign rejects and replaces; that is no cause for a warning
        args = [
            "conjectures", "--seed", "8", "--chains", "1", "--families", "1",
            "--perturbations", "3", "--doublings", "6",
            "--dataset", str(tmp_path / "g.jsonl"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(args, capsys)
        assert (code, err) == (0, "")

    def test_attempt_budget_ends_the_campaign(self, tmp_path, monkeypatch, capsys):
        import random

        import tropasym.cli
        from tropasym.conjectures import random_matrix, translation_chain

        # neither budget holds 20 chains: a short campaign writes nothing.  37
        # is no multiple of the chain block, whose draws still count one by
        # one, as in this loop
        ds = tmp_path / "g.jsonl"
        for budget in (200, 37):
            rng = random.Random(42)
            found = 0
            for _ in range(budget):
                gens = spectral_data(random_matrix(3, seed=rng)).generators
                found += len(gens) >= 2 and translation_chain(gens) is not None
            monkeypatch.setattr(tropasym.cli, "_MAX_ATTEMPTS", budget)
            code, out, err = run(
                ["conjectures", "--seed", "42", "--chains", "20", "--families", "1",
                 "--doublings", "6", "--dataset", str(ds)],
                capsys,
            )
            assert (code, out) == (1, "")
            assert err == f"error: {budget} draws found {found} of 20 chains and 0 of 1 families\n"
            assert not ds.exists()
        assert found > 0

    def test_chain_blocks_keep_the_draw_stream(self, tmp_path, monkeypatch, capsys):
        import random

        import tropasym.cli
        import tropasym.conjectures
        from tropasym.conjectures import (
            eigenspace_preserving_perturbations,
            random_matrix,
            translation_chain,
        )

        # the draws the campaign below needs, made one at a time
        rng = random.Random(5)
        draws = chains = families = 0
        while chains < 3:
            draws += 1
            gens = spectral_data(random_matrix(3, seed=rng)).generators
            chains += len(gens) >= 2 and translation_chain(gens) is not None
        while families < 2:
            draws += 1
            A = random_matrix(3, seed=rng)
            perts = eigenspace_preserving_perturbations(A, count=2, seed=rng.randrange(2**32))
            families += len(perts) == 2

        # a block of 1 is the draw-by-draw campaign.  A campaign that finds its
        # last chain in mid-block rewinds the stream, so the families draw what
        # they drew, and it counts only the draws it tested, so a budget of
        # one draw fewer misses the last family
        args = [
            "conjectures", "--seed", "5", "--chains", "3", "--families", "2",
            "--perturbations", "2", "--doublings", "6",
        ]
        ds = tmp_path / "g.jsonl"
        outputs = set()
        for block in (1, 7, tropasym.conjectures._CHAIN_BLOCK):
            monkeypatch.setattr(tropasym.conjectures, "_CHAIN_BLOCK", block)
            monkeypatch.setattr(tropasym.cli, "_MAX_ATTEMPTS", draws)
            code, out, _ = run(args + ["--dataset", str(ds)], capsys)
            assert code == 0, block
            outputs.add((out, ds.read_bytes()))
            ds.unlink()
            monkeypatch.setattr(tropasym.cli, "_MAX_ATTEMPTS", draws - 1)
            code, _, err = run(args + ["--dataset", str(ds)], capsys)
            assert (code, err) == (
                1, f"error: {draws - 1} draws found 3 of 3 chains and 1 of 2 families\n"
            ), block
        assert len(outputs) == 1

    def test_a_wrong_chain_flag_ends_the_campaign(self, tmp_path, monkeypatch, capsys):
        import tropasym.conjectures
        from tropasym.spectral import _batch_chains

        def flag_all(W):
            lam, critical, chain = _batch_chains(W)
            return lam, critical, chain | True

        # the screen's flag is the only decider of a chain, so a flag on a
        # draw that is none reaches conjecture1_test, which refuses it
        monkeypatch.setattr(tropasym.conjectures, "_batch_chains", flag_all)
        ds = tmp_path / "g.jsonl"
        code, out, err = run(self.ARGS + ["--seed", "42", "--dataset", str(ds)], capsys)
        assert (code, out, err) == (1, "", "error: eigenspace is not a translation chain\n")
        assert not ds.exists()

    def test_a_wrong_flag_on_one_generator_ends_the_campaign(
        self, tmp_path, monkeypatch, capsys
    ):
        import tropasym.conjectures
        from tropasym.spectral import _batch_chains

        def flag_single_class(W):
            lam, critical, _ = _batch_chains(W)
            # the campaign draws on the integer grid: denominator 1
            mats = [TropicalMatrix(tuple(map(tuple, w.tolist())), 1) for w in W]
            single = [len(spectral_data(A).generators) == 1 for A in mats]
            return lam, critical, np.array(single)

        # conjecture1_test holds on one generator (the degenerate chain), so
        # only the campaign can tell that the screen should not have let it in
        monkeypatch.setattr(tropasym.conjectures, "_batch_chains", flag_single_class)
        ds = tmp_path / "g.jsonl"
        code, out, err = run(self.ARGS + ["--seed", "42", "--dataset", str(ds)], capsys)
        assert (code, out, err) == (1, "", "error: eigenspace is not a translation chain\n")
        assert not ds.exists()

    def test_zero_counts(self, tmp_path, monkeypatch, capsys):
        import tropasym.cli

        def no_draw(*args, **kwargs):
            raise AssertionError("a bad count must be rejected before the first draw")

        # a campaign that tests nothing, or a family without perturbations or
        # with more than its base has, is an input error that writes no
        # report and no dataset
        monkeypatch.setattr(tropasym.cli.conj, "random_matrix", no_draw)
        monkeypatch.setattr(tropasym.cli.conj, "_draw_nums", no_draw)
        monkeypatch.chdir(tmp_path)  # default dataset file would land here
        for counts in (
            ["--chains", "0", "--families", "0"],
            ["--chains", "-2", "--families", "0"],
            ["--chains", "1", "--families", "-1"],
            ["--chains", "1", "--families", "1", "--perturbations", "0"],
            # a 3 x 3 base has 48 single-entry candidates, so 49 can never be found
            ["--chains", "1", "--families", "1", "--perturbations", "49"],
        ):
            code, out, err = run(["conjectures", "--seed", "3", *counts], capsys)
            assert (code, out) == (1, ""), counts
            assert err.startswith("error: --")
        assert list(tmp_path.iterdir()) == []


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
    # figure-4's schur report has two levels, so it is the one that runs a Schur step
    for name, matrix in (("FIG2", FIG2), ("FIG4", FIG4), ("FIG7", FIG7), ("CEX", CEX)):
        code, text, _ = run(["spectrum", "--matrix", matrix], capsys)
        assert code == 0
        out[f"spectrum {name}"] = _sha(text)
        code, text, _ = run(["schur", "--matrix", matrix], capsys)
        assert code == 0
        out[f"schur {name}"] = _sha(text)
    for name, matrix in (("FIG2", FIG2), ("FIG6", FIG6), ("FIG7", FIG7), ("CEX", CEX)):
        sd = spectral_data(TropicalMatrix.from_rows(json.loads(matrix)))
        out[f"region {name}"] = _sha(render_eigenspace_svg(sd, None, 160))
        out[f"region {name} grid 400"] = _sha(render_eigenspace_svg(sd, None, 400))
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
        for command in self.SOLVER_COMMANDS:
            d = self._defaults(command)
            assert {name: d[name] for name in library} == library, command


class TestFixedSeedOutputs:
    """Byte-level pins of the exact (rational and boolean) CLI outputs.

    A changed digest means a report changed.  Float text is left out:
    numpy's exp/log may differ in the last ulp between CPUs.  The region-only
    SVGs (no trajectory) are pinned: their coordinates come from rational
    generators and correctly rounded float arithmetic, not from exp/log.
    """

    PINNED = {
        "spectrum FIG2": "36a253c34051ce98",
        "schur FIG2": "f64fb8ea1cb04f0a",
        "spectrum FIG7": "2425d122e48ea00a",
        "schur FIG7": "0b9e1784fe614d4c",
        "spectrum CEX": "f85486630efa0ff5",
        "schur CEX": "b0f26282c7e3efc8",
        "spectrum FIG4": "84bb17db707969ff",
        "schur FIG4": "6350d2ee3bfdc025",
        "conjectures report": "68fef7875211c8e3",
        "conjectures dataset": "93ef3419f2a93b40",
        "region FIG2": "70f916e1f82ca70a",
        "region FIG6": "24f69c6f34367279",
        "region FIG7": "31375aefca74ab6d",
        "region CEX": "81cbb5241769d7e5",
        # the CLI's default grid
        "region FIG2 grid 400": "4b17f3fbe65820bc",
        "region FIG6 grid 400": "433ce4199f5eee15",
        "region FIG7 grid 400": "7c44f5c8937d484f",
        "region CEX grid 400": "1acf99b07774b6e6",
    }

    def test_outputs_unchanged(self, tmp_path, capsys):
        assert pinned_outputs(tmp_path, capsys) == self.PINNED
