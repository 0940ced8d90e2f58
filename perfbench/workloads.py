"""The three workloads: what each op is, how the seed picks its parameters,
and which layers each workload is predicted to exercise.

The seed picks parameters only.  The number of ops, the degrees and the
torsion/integral mix are fixed per workload, and parameters are drawn from
pools whose members cost about the same, so that two seeds give passes of
nearly the same size.
"""

from __future__ import annotations

import random

from oracle import partitions

# Grassmann evaluation cost does not depend on the coefficient modulus
# (odd or 0), so every member of this pool gives the same work.
GRASSMANN_ELLS = (0, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27)

# cyclic(m) costs the same for every m >= 2 (m = 0 is the fixed Z slot).
CYCLIC_MS = tuple(range(2, 65))

# ut2(ell, m) with m | ell: the lattice cost depends on whether ell = m
# or ell is a proper multiple of m, so each kind fills a fixed number of
# slots.  Models are distinct: a repeated one would hit the library's caches.
UT2_EQUAL_MS = tuple(range(2, 17))
UT2_CORNER_MS = (2, 3, 5, 7)
UT2_MULTIPLIERS = (2, 3, 4, 5)

# specht filtrate: cost grows with the number of rows of lambda, so each
# of the three ops takes its lambda from its own row count.
FILTRATE_MODULI = (0, 2, 3)
FILTRATE_MAX_N = 6


def _cli(argv, check) -> dict:
    return {"kind": "cli", "argv": list(argv), "check": check}


def exterior_cli(rng: random.Random) -> list[dict]:
    ops = []
    for k in (6, 5):
        ell = rng.choice(GRASSMANN_ELLS)
        ops.append(
            _cli(
                ["codim", "--ring", f"grassmann:{ell},{k}", "--n", "2..4", "--proper"],
                {"type": "codim", "family": "grassmann", "params": [ell, k],
                 "degrees": [2, 3, 4]},
            )
        )
    return ops


def torsion_session(rng: random.Random) -> list[dict]:
    cyclic = [0] + rng.sample(CYCLIC_MS, 7)
    equal = rng.sample(UT2_EQUAL_MS, 3)
    corner = rng.sample([(k * m, m) for m in UT2_CORNER_MS for k in UT2_MULTIPLIERS], 4)
    models = (
        [["cyclic", m] for m in cyclic]
        + [["ut2", 0, 0]]
        + [["ut2", m, m] for m in equal]
        + [["ut2", ell, m] for ell, m in corner]
    )
    return [{"kind": "session", "models": models, "degrees": [2, 3, 4, 5]}]


def specht_claims(rng: random.Random) -> list[dict]:
    ops = [
        _cli(["verify", "young"], {"type": "verify"}),
        _cli(["verify", "specht.torsionfree"], {"type": "verify"}),
    ]
    for rows in (1, 2, 3):
        choices = [
            (lam, n)
            for t in range(1, FILTRATE_MAX_N)
            for lam in partitions(t)
            if len(lam) == rows
            for n in range(t + 1, FILTRATE_MAX_N + 1)
        ]
        lam, n = rng.choice(choices)
        m = rng.choice(FILTRATE_MODULI)
        ops.append(
            _cli(
                ["specht", "filtrate", "--lambda", ",".join(map(str, lam)),
                 "--n", str(n), "--m", str(m)],
                {"type": "filtrate", "lam": list(lam), "n": n, "m": m},
            )
        )
    return ops


# Per workload: the op generator; the spans and counters that must be
# non-zero in every traced pass; and the predicted shares of trace.wall_s,
# as (summed metrics, ">=" or "<", share), which traced runs report.
WORKLOADS = {
    "exterior-cli": {
        "ops": exterior_cli,
        "called": ("pitheory.eval", "rings.build", "rings.tuples",
                   "lattices.image", "multilinear.proper_basis", "cli.emit"),
        "shares": (
            (("pitheory.eval_s",), ">=", 2 / 3),
            (("lattices.image_s", "lattices.kernel_s"), "<", 0.01),
        ),
    },
    "torsion-session": {
        "ops": torsion_session,
        "called": ("pitheory.eval", "rings.build", "rings.tuples",
                   "lattices.image", "lattices.kernel", "lattices.builder_adds",
                   "multilinear.proper_basis"),
        "shares": (
            (("lattices.image_s", "lattices.kernel_s"), ">=", 0.5),
        ),
    },
    "specht-claims": {
        "ops": specht_claims,
        "called": ("specht.lattice", "specht.induce", "specht.psi",
                   "pitheory.claim", "lattices.builder_adds", "cli.emit"),
        "shares": (
            (("specht.lattice_s", "specht.induce_s", "specht.psi_s",
              "specht.character_s"), ">=", 0.9),
        ),
    },
}


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one pass; the same seed always gives the same list."""
    return WORKLOADS[workload]["ops"](random.Random(f"{workload}:{seed}"))


def op_count(op: dict) -> int:
    """Ops a pass entry stands for: one per model in a library session."""
    return len(op["models"]) if op["kind"] == "session" else 1
