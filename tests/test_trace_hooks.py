"""The benchmark's layer trace (perfbench/layertrace.py) patches functions
of the library by name; these guards fail when a rename, or a route that
bypasses a traced function, breaks it."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    from opchild import TRACE_MARKER
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(ROOT / "perfbench"))

TRACED_SESSION = """
import importlib.util
spec = importlib.util.spec_from_file_location("layertrace", "perfbench/layertrace.py")
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
tracer = layertrace.Tracer()
layertrace.install(tracer)

from pilattice.pitheory import kernel_lattice, ordinary_codim
from pilattice.rings import tuple_count, ut2

model = ut2(2, 2)
ordinary_codim(model, 3, include_proper=True)
kernel_lattice(model, 3)
summary = tracer.summary()
assert summary["counts"]["rings.tuples"] == tuple_count(model, 3), summary
assert summary["calls"]["pitheory.eval"] == 1, summary
# one proper image, read off its own kernel fold; the ordinary value group
# is read off the ordinary kernel
assert summary["calls"]["lattices.image"] == 1, summary
assert summary["calls"]["lattices.kernel"] == 2, summary
# validation runs in the constructor, so building a model is a traced span
assert summary["calls"]["rings.build"] >= 1, summary

# a Specht lattice is spun through the counted LatticeBuilder.add
from pilattice.specht import pair, specht_lattice

adds = tracer.counts["lattices.builder_adds"]
specht_lattice(pair((2, 1), (2, 1, 1)))
summary = tracer.summary()
assert summary["calls"]["specht.lattice"] == 1, summary
assert summary["counts"]["lattices.builder_adds"] > adds > 0, summary

# the psi fold hands each [psi(s) | s] to the same counted add, as a dict:
# once the Specht lattices are cached, one add per row of S
from pilattice.specht import verify_psi_lemma

p = pair((2, 1), (2, 2))
assert verify_psi_lemma(p) == (True, True)
adds = tracer.counts["lattices.builder_adds"]
verify_psi_lemma(p)
added = tracer.counts["lattices.builder_adds"] - adds
assert added == specht_lattice(p).rank > 0, tracer.summary()
"""


def test_layer_trace_hooks_resolve():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SESSION],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "LookupError" not in proc.stderr


# A miniature of each workload's ops, as arguments of perfbench/opchild.py.
MINIATURES = {
    "exterior-cli": [
        ["cli", "codim", "--ring", "grassmann:3,3", "--n", "2..3", "--proper"],
    ],
    "torsion-session": [
        ["session", json.dumps({"models": [["ut2", 2, 2], ["cyclic", 3]], "degrees": [2, 3]})],
    ],
    "specht-claims": [
        ["cli", "verify", "young", "--n-max", "3"],
        ["cli", "verify", "specht.torsionfree", "--n-max", "3"],
        ["cli", "specht", "filtrate", "--lambda", "1", "--n", "3"],
    ],
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_miniature_calls_every_listed_layer(workload):
    """Each span or counter that a traced pass of the workload must record
    (``WORKLOADS[w]["called"]``) is nonzero in a miniature of its ops, each
    run like a benchmark op in its own traced process."""
    seen = Counter()
    for mode, *rest in MINIATURES[workload]:
        proc = subprocess.run(
            [sys.executable, "perfbench/opchild.py", mode, "trace", *rest],
            cwd=ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stderr.rpartition(TRACE_MARKER)[2])
        seen.update(summary["calls"])
        seen.update(summary["counts"])
    missing = [name for name in WORKLOADS[workload]["called"] if not seen[name]]
    assert not missing, f"{workload} miniature recorded no calls into {missing}"
