"""CLI behaviors: output schemas, exit codes, determinism, table statuses."""

import csv
import io
import json
import sys
from pathlib import Path

import pytest

import slicebound.bounds
import slicebound.checks
import slicebound.diagram
import slicebound.notation
import slicebound.seifert
from slicebound import BraidWord, CrossingLimitError, SeifertGraph, braid_closure, build_slice, parse_braid
from slicebound import parse_pd, pd_code, pd_text, random_braids, s_invariant, simplify
from slicebound.checks import knot_s
from slicebound.cli import bundled_table_path, main, run_fuzz, run_table

FIG8_PD = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens.json"
# virtual codes: each passes every structure check but has too few faces
# for the sphere
NON_PLANAR_PDS = ("X[2,4,3,1] X[3,2,4,1]", "X[2,4,1,3] X[4,1,3,2]", "X[1,4,2,5] X[6,3,1,4] X[5,2,6,3]")
NOT_PLANAR = "PD code is not planar: its crossings do not fit together on a sphere"
FUZZ_1000_SEED_42 = """\
fuzz: count=1000 strands<=5 max_length=12 seed=42 oracle=off
cases: 1000  knots: 239  links: 761  split: 350
  betti_equals_delta: 1000/1000
  dominance: 239/239
  link_reduction: 239/239
  mirror_identity: 1000/1000
  parity: 239/239
  structure: 1000/1000
  tightness: 1000/1000
PASS
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_braid_json(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--braid", "2: [1,1,1]", "--oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["U"] == 2
        assert payload["Delta"] == 0
        assert payload["s_exact"] == 2
        assert payload["s_oracle"] == 2
        assert payload["flags"]["positive"] is True

    def test_pd_with_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--pd", FIG8_PD, "--oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["U"] == 0
        assert payload["s_oracle"] == 0
        assert payload["flags"]["alternating"] is True

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--braid", "2: [0]")
        assert code == 2
        assert not out
        assert "error" in err

    @pytest.mark.parametrize("pd, err", [
        ("X[1,1,1,2] X[2,3,3,4]", "error: edge 1 fills more than two crossing slots\n"),
        ("X[2,4,1,5] X[3,6,4,1] X[5,2,6,3]", "error: edge 2 is entered by 0 strand passages, expected 1\n"),
        ("X[1,5,3,4] X[2,1,4,6] X[5,2,6,3]",
         "error: component containing edge 1 is not a consecutive label run; incoherent cycles\n"),
        *((pd, f"error: {NOT_PLANAR}\n") for pd in NON_PLANAR_PDS),
    ])
    def test_malformed_pd_exit_2(self, capsys, pd, err):
        assert run_cli(capsys, "bound", "--pd", pd) == (2, "", err)
        assert run_cli(capsys, "bound", "--pd", pd, "--oracle") == (2, "", err)
        assert run_cli(capsys, "oracle", "--pd", pd) == (2, "", err)

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run_cli(capsys, "bound")
        assert code == 2
        code, _, err = run_cli(capsys, "bound", "--pd", FIG8_PD, "--braid", "2: [1]")
        assert code == 2

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--braid", "2: [1,1,1]", "--csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["U"] == "2"
        assert rows[0]["positive"] == "true"

    def test_oracle_skip_when_too_large(self, capsys):
        word = "2: [" + ",".join(["1"] * 13) + "]"
        code, out, err = run_cli(capsys, "bound", "--braid", word, "--oracle", "--max-crossings", "12")
        assert code == 0
        assert json.loads(out)["s_oracle"] is None
        assert "skipped" in err

    def test_oracle_skip_line_is_the_refusal_message(self, capsys):
        word = "2: [" + ",".join(["1"] * 9) + "]"
        with pytest.raises(CrossingLimitError) as refusal:
            build_slice(braid_closure(parse_braid(word)), 8)
        code, _, err = run_cli(capsys, "bound", "--braid", word, "--oracle", "--max-crossings", "8")
        assert code == 0
        assert err == f"oracle skipped: {refusal.value}\n"
        _, _, err = run_cli(capsys, "oracle", "--braid", word, "--max-crossings", "8")
        assert err == f"error: {refusal.value}\n"

    def test_oracle_runs_on_the_reduced_word(self, capsys):
        # 13 crossings as drawn, 8 after simplify; s = -2 by the full oracle
        word = "4: [-3,-1,1,-3,-2,2,-2,-2,1,3,-2,3,2]"
        assert len(simplify(braid_closure(parse_braid(word))).crossings) == 8
        code, out, err = run_cli(capsys, "bound", "--braid", word, "--oracle")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["s_oracle"] == -2
        assert payload["s_lower"] <= -2 <= payload["s_upper"]
        code, _, err = run_cli(capsys, "oracle", "--braid", word)
        assert code == 2 and "13 crossings" in err

    def test_oracle_simplifies_pd_input(self, capsys):
        # 14 crossings as drawn, beyond the default limit; 6 after simplify
        pd = pd_text(pd_code(braid_closure(parse_braid("5: [-3,-1,-1,-4,4,-4,1,4,2,2,3,-4,3,-2]"))))
        code, out, err = run_cli(capsys, "bound", "--pd", pd, "--oracle")
        assert (code, err) == (0, "")
        assert json.loads(out)["s_oracle"] == 2

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "bound", "--braid", "3: [1,-2,1,-2]", "--oracle")
        _, out2, _ = run_cli(capsys, "bound", "--braid", "3: [1,-2,1,-2]", "--oracle")
        assert out1 == out2


class TestOracleCommand:
    def test_unknot_kink(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--pd", "X[1,1,2,2]")
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == 0
        assert payload["jumps"] == [-1, 1]

    def test_trefoil_profile(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--braid", "2: [1,1,1]")
        payload = json.loads(out)
        assert payload["s"] == 2
        assert payload["s_min"] == 1
        assert payload["jumps"] == [1, 3]
        assert payload["profile"] == [[5, 0], [3, 1], [1, 2]]

    def test_rejects_links(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--braid", "2: [1,1]")
        assert code == 2

    def test_s_that_disagrees_with_the_jumps_is_an_internal_error(self, monkeypatch, capsys):
        s_invariant = slicebound.checks.s_invariant
        monkeypatch.setattr(slicebound.checks, "s_invariant", lambda s: s_invariant(s) + 2)
        code, out, err = run_cli(capsys, "oracle", "--braid", "2: [1,1,1]")
        assert (code, out) == (1, "")
        assert err == "internal consistency error: s = 4 disagrees with filtration jumps (1, 3)\n"


class TestOutOption:
    @pytest.mark.parametrize("argv", [
        ("bound", "--braid", "2: [1,1,1]", "--oracle"),
        ("bound", "--pd", FIG8_PD, "--csv"),
        ("oracle", "--pd", FIG8_PD),
        ("table", "--oracle"),
        ("fuzz", "--count", "50", "--seed", "7"),
    ])
    def test_the_file_holds_what_stdout_would(self, argv, tmp_path, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out
        path = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode("utf-8")


class TestCrossingLimitOption:
    @pytest.mark.parametrize("argv", [
        ("bound", "--braid", "2: [1,1,1]", "--oracle"),
        ("oracle", "--braid", "2: [1,1,1]"),
        ("table", "--oracle"),
        ("fuzz", "--count", "200", "--seed", "7", "--oracle"),
    ])
    def test_negative_limit_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--max-crossings", "-1"])
        out, err = capsys.readouterr()
        assert (exited.value.code, out) == (2, "")
        assert err.endswith("error: --max-crossings must be >= 0, got -1\n")

    def test_zero_admits_the_crossingless_unknot(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--braid", "1: []", "--max-crossings", "0")
        assert (code, err) == (0, "")
        assert json.loads(out)["s"] == 0


class TestTableCommand:
    def test_bundled_table_clean(self, capsys):
        code, out, err = run_cli(capsys, "table", "--oracle")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 36
        assert all(r["status"] in ("TIGHT", "SANDWICH_OK") for r in rows)

    def test_error_rows(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text(
            "name,pd,known_s\n"
            'ok,"X[1,1,2,2]",0\n'
            'odd,"X[1,1,2,2]",1\n'
            'bad,"X[1,2,3]",\n'
            'link,"X[4,1,3,2] X[2,3,1,4]",\n'
            'notint,"X[1,1,2,2]",x\n'
            + "".join(f'virtual{i},"{pd}",\n' for i, pd in enumerate(NON_PLANAR_PDS))
        )
        code, out, err = run_cli(capsys, "table", "--in", str(table))
        assert code == 1
        rows = {r["name"]: r for r in csv.DictReader(io.StringIO(out))}
        assert rows["ok"]["status"] == "TIGHT"
        assert rows["odd"]["status"] == "ERROR" and "odd" in rows["odd"]["detail"]
        assert rows["bad"]["status"] == "ERROR"
        assert rows["link"]["status"] == "ERROR" and "knots" in rows["link"]["detail"]
        assert rows["notint"]["status"] == "ERROR" and "not an integer" in rows["notint"]["detail"]
        for i in range(len(NON_PLANAR_PDS)):
            assert (rows[f"virtual{i}"]["status"], rows[f"virtual{i}"]["detail"]) == ("ERROR", NOT_PLANAR)

    def test_unreadable_input_and_unwritable_output_exit_2(self, tmp_path, capsys):
        for argv in (("table", "--in", str(tmp_path / "missing.csv")),
                     ("table", "--out", str(tmp_path / "missing" / "out.csv"))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert not out and err.startswith("error: ")

    def test_mismatch_on_wrong_known_s(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text('name,pd,known_s\nwrong,"X[1,1,2,2]",4\n')
        code, out, _ = run_cli(capsys, "table", "--in", str(table), "--oracle")
        assert code == 1
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["status"] == "MISMATCH"
        assert "oracle_vs_known" in row["detail"]

    def test_known_outside_window_without_oracle(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text('name,pd,known_s\nwrong,"X[1,1,2,2]",4\n')
        code, out, _ = run_cli(capsys, "table", "--in", str(table))
        assert code == 1
        row = next(csv.DictReader(io.StringIO(out)))
        assert "known_outside_window" in row["detail"]

    def test_empty_table(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("name,pd,known_s\n")
        code, out, _ = run_cli(capsys, "table", "--in", str(table))
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 0

    def test_byte_order_mark_keeps_the_names(self, tmp_path, capsys):
        # spreadsheet exports put a UTF-8 byte-order mark before the header
        text = 'name,pd,known_s\n3_1,"X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",\n'
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        outputs = [run_cli(capsys, "table", "--in", str(path)) for path in (plain, marked)]
        assert outputs[0] == outputs[1]
        assert outputs[0][1].splitlines()[1].startswith("3_1,")

    def test_row_order_preserved(self, capsys):
        with open(bundled_table_path(), newline="", encoding="utf-8") as fh:
            names_in = [r["name"] for r in csv.DictReader(fh)]
        _, out, _ = run_cli(capsys, "table")
        names_out = [r["name"] for r in csv.DictReader(io.StringIO(out))]
        assert names_out == names_in


class TestFuzzCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "50", "--strands", "4",
                               "--max-length", "8", "--seed", "7")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_zero_cases(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "0", "--seed", "1")
        assert code == 0
        assert "cases: 0" in out

    def test_byte_identical_summaries(self, capsys):
        args = ("fuzz", "--count", "60", "--strands", "5", "--max-length", "10", "--seed", "42")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_oracle_gate(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "30", "--strands", "3",
                               "--max-length", "6", "--seed", "3", "--oracle",
                               "--max-crossings", "6")
        assert code == 0
        assert "sandwich:" in out

    def test_a_structure_failure_is_reported(self, monkeypatch, capsys):
        def refuse(d):
            raise slicebound.diagram.ValidationError("refused")

        monkeypatch.setattr(slicebound.checks, "validate", refuse)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "20", "--seed", "42")
        lines = out.splitlines()
        failures = [line for line in lines if line.startswith("FAIL ")]
        assert code == 1 and lines[-1] == "FAIL"
        assert "  structure: 0/20" in lines and "  tightness: 20/20" in lines
        assert len(failures) == 20 and all(f.startswith("FAIL property=structure case=") for f in failures)
        assert failures[0] == "FAIL property=structure case=0 word=3:[-2] seed=5139283748462763858"

    def test_a_tightness_failure_is_reported(self, monkeypatch, capsys):
        # Delta = 2 on every diagram: a connected diagram in a tightness
        # class makes ``bounds_report`` raise
        monkeypatch.setattr(slicebound.bounds, "bound_Delta", lambda d: 2)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "30", "--seed", "42")
        lines = out.splitlines()
        assert code == 1 and lines[-1] == "FAIL"
        assert "  structure: 30/30" in lines and "  tightness: 29/30" in lines
        assert [line for line in lines if line.startswith("FAIL ")] == [
            "FAIL property=tightness case=11 word=4:[-1, -1, -1, -2, -1, -3] seed=7010184598893129283"]


class TestRunFuzzEngine:
    def test_counts_add_up(self):
        summary = run_fuzz(100, 5, 12, 42)
        assert summary.cases == 100
        assert summary.knots + summary.links == 100
        assert summary.ok
        assert summary.checked["mirror_identity"] == 100
        assert summary.checked["betti_equals_delta"] == 100

    def test_deterministic(self):
        assert run_fuzz(40, 4, 9, 7).text() == run_fuzz(40, 4, 9, 7).text()

    def test_betti_property_fails_when_the_union_find_joins_nothing(self, monkeypatch):
        class JoinsNothing(slicebound.seifert.UnionFind):
            def union(self, x, y):
                return False

        monkeypatch.setattr(slicebound.seifert, "UnionFind", JoinsNothing)
        summary = run_fuzz(200, 5, 12, 42)
        # each node is then a component of its own: the Betti sum still
        # equals Delta, but no connected case has one component
        failed = summary.checked["betti_equals_delta"] - summary.passed.get("betti_equals_delta", 0)
        assert failed == summary.cases - summary.split > 0
        assert not summary.ok

    def test_each_case_resolves_the_diagram_and_its_mirror_once(self, resolution_masks):
        summary = run_fuzz(30, 5, 12, 42)
        assert summary.ok and summary.cases == 30
        assert len(resolution_masks) == 2 * summary.cases

    def test_each_case_builds_the_graph_of_the_diagram_and_its_mirror_once(self, calls):
        graphs = calls(SeifertGraph, "__init__")
        summary = run_fuzz(30, 5, 12, 42)
        assert len(graphs) == 2 * summary.cases

    def test_each_case_runs_at_most_four_signed_component_passes(self, calls):
        passes = calls(SeifertGraph, "_component_ids")
        summary = run_fuzz(30, 5, 12, 42)
        assert len(passes) <= 4 * summary.cases

    def test_each_case_runs_the_validation_checks_once(self, calls):
        checks = calls(slicebound.diagram, "_check_structure")
        summary = run_fuzz(30, 5, 12, 42)
        assert len(checks) == summary.cases


class TestKnotS:
    def test_equals_the_oracle_on_the_diagram_as_drawn(self):
        # the fuzz corpora of seeds 7 and 42 at word length 16: every knot
        # closure of at most 10 crossings that simplify shrinks
        checked = 0
        for seed in (7, 42):
            for w, _ in random_braids(1000, 5, 16, seed):
                d = braid_closure(w)
                if not (d.is_knot and d.is_connected) or len(d.crossings) > 10 or simplify(d) is d:
                    continue
                assert knot_s(d, 10) == slicebound.checks._drawn_s(d, 10), w
                checked += 1
        assert checked >= 100

    def test_without_a_word_uses_the_diagram(self, calls):
        # PD input, with no kink or bigon: the parsed diagram itself
        built = calls(slicebound.checks, "build_slice")
        d = parse_pd(FIG8_PD).diagram
        assert knot_s(d, 12) == 0
        assert built[0][0] is d

    def test_a_reduced_word_uses_the_diagram(self, calls):
        built = calls(slicebound.checks, "build_slice")
        w = BraidWord(2, (1, 1, 1))
        d = braid_closure(w)
        assert knot_s(d, 12) == 2
        assert built[0][0] is d

    def test_a_kink_goes_before_the_oracle(self, calls):
        built = calls(slicebound.checks, "build_slice")
        d = braid_closure(BraidWord(3, (1, 1, 2, 1)))
        assert knot_s(d, 12) == 2
        assert len(built[0][0].crossings) == 3

    def test_the_refusal_concerns_the_reduced_diagram(self):
        d = braid_closure(BraidWord(3, (1, 1, 1, 1, 1, 2)))
        assert knot_s(d, 5) == 4
        with pytest.raises(CrossingLimitError, match="5 crossings exceeds the configured limit 4"):
            knot_s(d, 4)

    def test_fuzz_checks_the_reduced_s(self):
        summary = run_fuzz(200, 5, 12, 42, oracle_limit=9)
        assert summary.ok
        assert summary.checked["reduced_s"] >= 30
        assert "reduced_s" not in run_fuzz(200, 5, 12, 42).checked


class TestRunTableEngine:
    def test_tolerates_missing_fields(self):
        rows = [{"name": "kink", "pd": "X[1,1,2,2]"}]
        out = run_table(rows, oracle_limit=None)
        assert out[0]["status"] == "TIGHT"
        assert out[0]["known_s"] == ""

    def test_tightness_violation_is_an_error_row(self, monkeypatch):
        # the figure-eight diagram is alternating, so its Delta must be 0
        monkeypatch.setattr(slicebound.bounds, "bound_Delta", lambda d: 2)
        out = run_table([{"name": "4_1", "pd": FIG8_PD}], oracle_limit=None)
        assert out[0]["status"] == "ERROR"
        assert out[0]["detail"] == "diagram is alternating but Delta = 2 != 0"

    def test_oracle_outside_the_window_is_a_sandwich_violation(self, monkeypatch):
        # the figure-eight diagram's window is [0, 0]
        monkeypatch.setattr(slicebound.checks, "knot_s", lambda d, limit: 2)
        out = run_table([{"name": "4_1", "pd": FIG8_PD}], oracle_limit=10)
        assert (out[0]["s_oracle"], out[0]["status"]) == (2, "MISMATCH")
        assert out[0]["detail"] == "sandwich_violation: s=2 outside [0, 0]"


class TestPdCompiledOnce:
    """A PD input is compiled into a diagram once, by ``parse_pd``."""

    @pytest.fixture
    def compiled(self, calls):
        """Counts the ``diagram_from_pd`` calls made through every package
        namespace that binds it."""
        fn = slicebound.notation.diagram_from_pd
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "slicebound"]
        seen = [calls(m, "diagram_from_pd") for m in modules if getattr(m, "diagram_from_pd", None) is fn]
        return lambda: sum(map(len, seen))

    def test_each_table_row_compiles_once(self, compiled):
        with open(bundled_table_path(), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        results = run_table(rows, oracle_limit=None)
        assert all(r["status"] in ("TIGHT", "SANDWICH_OK") for r in results)
        assert compiled() == len(rows)

    @pytest.mark.parametrize("argv", [["bound", "--pd", FIG8_PD, "--oracle"], ["oracle", "--pd", FIG8_PD]])
    def test_each_pd_input_compiles_once(self, compiled, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0
        assert compiled() == 1


class TestFrozenCorpus:
    """``cli.main`` reproduces the benchmark's recorded outputs byte for byte."""

    @pytest.fixture(scope="class")
    def goldens(self):
        with open(GOLDENS, encoding="utf-8") as fh:
            return json.load(fh)

    def test_fuzz_batches(self, goldens, capsys):
        count = str(goldens["fuzz"]["count"])
        for seed, text in goldens["fuzz"]["batches"].items():
            assert run_cli(capsys, "fuzz", "--count", count, "--seed", seed) == (0, text, ""), seed

    def test_standing_fuzz_gate(self, capsys):
        # is_connected decides the split count
        assert run_cli(capsys, "fuzz", "--count", "1000", "--seed", "42") == (0, FUZZ_1000_SEED_42, "")

    def test_table_with_oracle(self, goldens, capsys):
        assert run_cli(capsys, "table", "--oracle") == (0, goldens["table"], "")

    def test_mid_knots(self, goldens, capsys):
        assert len(goldens["mid"]) == 5
        for knot in goldens["mid"]:
            bound = run_cli(capsys, "bound", "--braid", knot["braid"], "--oracle")
            assert bound == (0, knot["bound_json"], ""), knot["key"]
            assert run_cli(capsys, "oracle", "--braid", knot["braid"]) == (0, knot["oracle_json"], ""), knot["key"]
