"""Self-tests of the benchmark, run before every measurement.

    python3 perfbench/selftest.py

The answer checker must accept known-correct reports and reject each
deliberately wrong one, and every metric must have a well-formed name
and unit.  The correct reports below were written out by hand from the
paper's formulas, not produced by the code under test.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import oracle

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _inv(torsion, free=0):
    return {"free_rank": free, "torsion": list(torsion)}


# grassmann(3, K >= 4): (Z/3)^(2^(n-1)); proper Z/3 in even degree only
GRASSMANN_3 = {
    "reports": [
        {"n": 2, "ordinary": _inv([3, 3]), "proper": _inv([3])},
        {"n": 3, "ordinary": _inv([3] * 4), "proper": _inv([])},
        {"n": 4, "ordinary": _inv([3] * 8), "proper": _inv([3])},
    ]
}

# ut2(4, 2) in degree 3: Z/4 + (Z/2)^5 ordinary, (Z/2)^2 proper; the
# kernel has full rank 6 and index 4 * 2^5 = 128
UT2_4_2 = {
    "model": ["ut2", 4, 2],
    "degrees": {"3": {
        "ordinary": _inv([2, 2, 2, 2, 2, 4]), "proper": _inv([2, 2]),
        "kernel_rank": 6, "kernel_pivot_product": "128",
    }},
}

# specht filtrate --lambda 2,1 --n 5: factors 41, 32, 311, 221 of ranks
# 4, 5, 6, 5 inside the induced lattice of rank 2 * C(5, 3) = 20
FILTRATE_21_5 = {
    "report": {
        "chain_ranks": [20, 16, 11, 5, 0],
        "factors": [
            {"factor_label": [4, 1], "invariants": _inv([], 4), "rank": 4},
            {"factor_label": [3, 2], "invariants": _inv([], 5), "rank": 5},
            {"factor_label": [3, 1, 1], "invariants": _inv([], 6), "rank": 6},
            {"factor_label": [2, 2, 1], "invariants": _inv([], 5), "rank": 5},
        ],
    }
}


def _checker_problems() -> list[str]:
    problems = []

    def expect(name, errors, should_fail):
        if bool(errors) != should_fail:
            problems.append(
                f"checker {'accepted' if should_fail else 'rejected'} {name}: {errors}"
            )

    g = GRASSMANN_3
    expect("grassmann(3,6)", oracle.check_codim_report(g, "grassmann", [3, 6], [2, 3, 4]), False)
    expect("grassmann(5,6) expected for a grassmann(3,6) report",
           oracle.check_codim_report(g, "grassmann", [5, 6], [2, 3, 4]), True)
    bad = copy.deepcopy(g)
    bad["reports"][2]["ordinary"]["torsion"][0] = 9
    expect("a wrong ordinary invariant", oracle.check_codim_report(bad, "grassmann", [3, 6], [2, 3, 4]), True)
    bad = copy.deepcopy(g)
    bad["reports"][1]["proper"] = _inv([3])
    expect("a wrong proper invariant", oracle.check_codim_report(bad, "grassmann", [3, 6], [2, 3, 4]), True)
    expect("a missing degree", oracle.check_codim_report(g, "grassmann", [3, 6], [2, 3, 4, 5]), True)

    u = UT2_4_2
    expect("ut2(4,2)", oracle.check_session_model(u, "ut2", [4, 2], [3]), False)
    expect("ut2(4,4) expected for a ut2(4,2) result",
           oracle.check_session_model(u, "ut2", [4, 4], [3]), True)
    for key, value in (("kernel_pivot_product", "64"), ("kernel_rank", 5),
                       ("ordinary", _inv([2, 2, 2, 2, 2, 2]))):
        bad = copy.deepcopy(u)
        bad["degrees"]["3"][key] = value
        expect(f"a wrong {key}", oracle.check_session_model(bad, "ut2", [4, 2], [3]), True)

    f = FILTRATE_21_5
    expect("filtrate (2,1) n=5 m=0", oracle.check_filtrate(f, (2, 1), 5, 0), False)
    expect("filtrate read as mod 3", oracle.check_filtrate(f, (2, 1), 5, 3), True)
    bad = copy.deepcopy(f)
    bad["report"]["factors"][1]["factor_label"] = [4, 1]
    expect("a repeated factor shape", oracle.check_filtrate(bad, (2, 1), 5, 0), True)
    bad = copy.deepcopy(f)
    bad["report"]["factors"][2]["invariants"] = _inv([], 5)
    expect("a wrong factor invariant", oracle.check_filtrate(bad, (2, 1), 5, 0), True)

    passed = {"passed": True, "counts": {"total": 15, "failed": 0}}
    expect("a passed claim", oracle.check_verify(passed), False)
    expect("a failed claim", oracle.check_verify({**passed, "passed": False}), True)
    expect("a claim that checked nothing",
           oracle.check_verify({**passed, "counts": {"total": 0, "failed": 0}}), True)
    return problems


def _metric_problems(spec: dict) -> list[str]:
    problems = []
    seen = set()
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            name, unit = metric.get("name", ""), metric.get("unit", "")
            if not NAME.fullmatch(name):
                problems.append(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
            if not UNIT.fullmatch(unit):
                problems.append(f"metric {name!r} has no well-formed unit: {unit!r}")
            if name in seen:
                problems.append(f"metric name {name!r} used twice")
            seen.add(name)
    return problems


def run_all(spec: dict) -> list[str]:
    return _metric_problems(spec) + _checker_problems()


if __name__ == "__main__":
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    found = run_all(spec)
    print("\n".join(found) if found else "self-test passed")
    sys.exit(1 if found else 0)
