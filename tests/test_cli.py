"""Command-line contract: ring-spec grammar, exit codes, report shapes,
and byte-stable output."""

import json
import subprocess
import sys

import pytest

from pilattice import pitheory
from pilattice.cli import main, parse_n_range, parse_partition, parse_ring_spec
from pilattice.pitheory import CLAIMS, VerificationOutcome
from pilattice.rings import ut2


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# spec grammar
# ---------------------------------------------------------------------------

def test_parse_ring_specs():
    assert parse_ring_spec("cyclic:6").label == "cyclic(6)"
    assert parse_ring_spec("ut2:2,2").label == "ut2(2,2)"
    assert parse_ring_spec("grassmann:3,4").label == "grassmann(3,4)"
    assert (
        parse_ring_spec("sum:[cyclic:2,cyclic:3]").label
        == "sum(cyclic(2),cyclic(3))"
    )
    nested = parse_ring_spec("sum:[sum:[cyclic:2,cyclic:3],ut2:2,2]")
    assert nested.label == "sum(sum(cyclic(2),cyclic(3)),ut2(2,2))"


def test_parse_ring_spec_from_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ut2(2, 2).to_json()))
    assert parse_ring_spec(f"@{path}").label == "ut2(2,2)"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "cyclic",
        "frobnitz:3",
        "ut2:2",
        "ut2:a,b",
        "sum:cyclic:2",
        "sum:[cyclic:2",
        "grassmann:3,4,5",
    ],
)
def test_parse_ring_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_ring_spec(bad)


def test_parse_n_range():
    assert parse_n_range("3") == (3,)
    assert parse_n_range("2..5") == (2, 3, 4, 5)
    with pytest.raises(ValueError):
        parse_n_range("5..2")
    with pytest.raises(ValueError):
        parse_n_range("x")


def test_parse_partition():
    assert parse_partition("2,1") == (2, 1)
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("")


# ---------------------------------------------------------------------------
# codim command
# ---------------------------------------------------------------------------

def test_codim_json_report(capsys):
    code, doc = run_json(
        capsys, ["codim", "--ring", "ut2:2,2", "--n", "2", "--proper", "--q", "2"]
    )
    assert code == 0
    assert doc["schema"] == "pi-lattice/1"
    assert doc["config"]["ring"] == "ut2:2,2"
    (report,) = doc["reports"]
    assert report["ordinary"] == {"torsion": [2, 2], "free_rank": 0}
    assert report["proper"] == {"torsion": [2], "free_rank": 0}
    assert report["ordinary_count"] == 2 and report["proper_count"] == 1
    assert "timing_ms" not in report


def test_codim_range_ordered(capsys):
    code, doc = run_json(capsys, ["codim", "--ring", "cyclic:4", "--n", "2..4"])
    assert code == 0
    assert [r["n"] for r in doc["reports"]] == [2, 3, 4]
    assert all(r["ordinary"]["torsion"] == [4] for r in doc["reports"])


def test_codim_truncation_override(capsys):
    code, doc = run_json(
        capsys, ["codim", "--ring", "grassmann:3,4", "--n", "2", "--k", "5"]
    )
    assert code == 0
    assert doc["reports"][0]["ring"] == "grassmann(3,5)"


def test_codim_timings_flag(capsys):
    code, doc = run_json(
        capsys, ["codim", "--ring", "cyclic:2", "--n", "2", "--timings"]
    )
    assert code == 0
    assert "timing_ms" in doc["reports"][0]


def test_codim_csv(capsys):
    code = main(["codim", "--ring", "ut2:2,2", "--n", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ring,n,kind,free_rank,torsion,count_at_q"
    assert lines[1] == '"ut2(2,2)",2,ordinary,0,2x2,'


@pytest.mark.parametrize(
    "argv",
    [
        ["codim", "--ring", "cyclic:4", "--n", "2", "--k", "5"],
        ["codim", "--ring", "ut2:2,2", "--n", "6"],
        ["codim", "--ring", "grassmann:3,4", "--n", "5"],
        ["codim", "--ring", "nope:1", "--n", "2"],
        ["codim", "--ring", "@/does/not/exist.json", "--n", "2"],
        ["codim", "--ring", "cyclic:4", "--n", "0..2"],
        ["codim", "--ring", "ut2:2,2", "--n", "2", "--q", "6"],
        # a bad q is named before any budget
        ["codim", "--ring", "ut2:2,2", "--n", "5", "--q", "6", "--row-budget", "1"],
    ],
)
def test_codim_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


def test_codim_budget_exit(capsys):
    code = main(["codim", "--ring", "ut2:2,2", "--n", "4", "--row-budget", "10"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_codim_guards_the_whole_range_before_evaluating(capsys, monkeypatch):
    def untouchable(*args, **kwargs):
        raise AssertionError("an evaluation ran before the guard")

    monkeypatch.setattr(pitheory, "_invariants", untouchable)
    # degrees 2..4 fit in 300 rows; degree 5 needs 729
    argv = ["codim", "--ring", "ut2:2,2", "--n", "2..5", "--row-budget", "300"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "ut2(2,2) at n=5" in captured.err


def test_verify_budget_exit(capsys):
    # the filtration claim evaluates too, so it must honour the budget
    argv = ["verify", "drensky", "--ring", "ut2:2,2", "--row-budget", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "ut2(2,2) at n=2" in err and "budget of 1" in err
    # the probe grassmann(3,5) carries only the degree cap; the first
    # evaluation over the budget is its identity-basis kernel at degree 3
    assert main(["verify", "grassmann.codim", "--row-budget", "5000"]) == 2
    assert "grassmann(3,5) at n=3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["codim", "--ring", "ut2:2,2", "--n", "2", "--row-budget", "-5"],
        ["verify", "drensky", "--row-budget", "-5"],
        ["verify", "young", "--n-max", "0"],
        ["verify", "young", "--n-max", "-1"],
    ],
)
def test_out_of_range_options_exit_one(argv, capsys):
    # malformed input, not a budget abort or a silent default
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "must be at least" in capsys.readouterr().err


def test_missing_arguments_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["codim"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_passing_claim(capsys):
    code, doc = run_json(
        capsys, ["verify", "ut2.codim", "--ring", "ut2:2,2", "--n-max", "3"]
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["counts"]["failed"] == 0
    assert doc["counts"]["total"] == len(doc["outcomes"])
    # the ut2 claim folds in its filtration cross-checks
    assert {oc["claim"] for oc in doc["outcomes"]} == {"ut2.codim", "drensky"}


def test_verify_failing_claim_exit_three(capsys, monkeypatch):
    monkeypatch.setitem(
        CLAIMS,
        "always-fails",
        lambda config: [
            VerificationOutcome(
                "always-fails", "unit", None, False, 1, 2, "planted failure"
            )
        ],
    )
    code, doc = run_json(capsys, ["verify", "always-fails"])
    assert code == 3
    assert doc["passed"] is False
    assert doc["counts"] == {"total": 1, "failed": 1}
    assert doc["outcomes"][0]["witness"] == "planted failure"


def test_verify_usage_errors(capsys):
    assert main(["verify", "no-such-claim"]) == 1
    assert main(["verify", "young", "--ring", "cyclic:2"]) == 1
    assert main(["verify", "ut2.codim", "--ring", "cyclic:2"]) == 1
    capsys.readouterr()
    # both claims start at degree 2, so --n-max 1 leaves nothing to verify
    for claim in ("drensky", "young"):
        assert main(["verify", claim, "--n-max", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "selects no checks" in captured.err
    assert main(["verify", "young", "--n-max", "8"]) == 1
    assert "exceeds the supported bound 7" in capsys.readouterr().err
    # over-cap degrees are rejected, not silently clamped
    for claim, n_max in (("drensky", 5), ("grassmann.codim", 5), ("field-props", 6)):
        assert main(["verify", claim, "--n-max", str(n_max)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the configured bound" in captured.err
        # the CLI has no option that passes a bound, so it must not hint at one
        assert "override" not in captured.err


def test_verify_proper_ordinary_rejects_degrees_past_the_specht_cap(capsys, monkeypatch):
    # the row budget counts one tuple per degree of cyclic(3), not the 9!
    # columns, so the degree ceiling must stop the run before any work
    def untouchable(*args, **kwargs):
        raise AssertionError("an evaluation ran before the guard")

    monkeypatch.setattr(pitheory, "_invariants", untouchable)
    monkeypatch.setattr(pitheory, "_proper_invariants", untouchable)
    assert main(["verify", "proper-ordinary", "--ring", "cyclic:3", "--n-max", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "degree 9 exceeds the supported bound 7" in captured.err


def test_verify_csv(capsys, monkeypatch):
    monkeypatch.setitem(
        CLAIMS,
        "always-fails",
        lambda config: [
            VerificationOutcome(
                "always-fails", "unit", 3, False, 1, 2, "planted failure"
            )
        ],
    )
    code = main(["verify", "always-fails", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "claim,subject,n,passed,expected,computed,witness"
    assert lines[1] == "always-fails,unit,3,False,1,2,planted failure"


# ---------------------------------------------------------------------------
# specht command
# ---------------------------------------------------------------------------

def test_specht_rank(capsys):
    code, doc = run_json(capsys, ["specht", "rank", "--lambda", "3,2"])
    assert code == 0
    assert doc["rank"] == doc["hook_rank"] == 5
    assert doc["consistent"] is True


def test_specht_filtrate(capsys):
    code, doc = run_json(
        capsys, ["specht", "filtrate", "--lambda", "1", "--n", "3", "--m", "2"]
    )
    assert code == 0
    report = doc["report"]
    assert report["modulus"] == 2
    assert [f["factor_label"] for f in report["factors"]] == [[3], [2, 1]]
    assert report["factors"][1]["invariants"] == {"torsion": [2, 2], "free_rank": 0}


def test_specht_filtrate_csv(capsys):
    code = main(
        ["specht", "filtrate", "--lambda", "1", "--n", "3", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,mu,modulus,factor,rank,invariants"
    assert len(lines) == 3


def test_specht_usage_errors(capsys):
    assert main(["specht", "filtrate", "--lambda", "1"]) == 1        # no --n
    assert main(["specht", "rank", "--lambda", "1,2"]) == 1          # not a partition
    assert main(["specht", "filtrate", "--lambda", "2,1", "--n", "3"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# report stability
# ---------------------------------------------------------------------------

STABLE_ARGS = [
    "codim", "--ring", "sum:[ut2:2,2,cyclic:3]", "--n", "2..3",
    "--proper", "--seed", "11",
]


def test_reports_are_byte_stable(tmp_path):
    a, b = (tmp_path / name for name in ("a.json", "b.json"))
    assert main(STABLE_ARGS + ["--output", str(a)]) == 0
    assert main(STABLE_ARGS + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["config"]["seed"] == 11


def test_star_import_resolves_every_export():
    import pilattice

    namespace: dict = {}
    exec("from pilattice import *", namespace)
    for name in pilattice.__all__:
        assert namespace[name] is getattr(pilattice, name)


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pilattice.cli"],
        input="",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1   # missing subcommand is a usage error
