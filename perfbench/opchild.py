"""One benchmark op process: imports pilattice from the checkout's src/.

    python3 perfbench/opchild.py cli plain|trace ARGV...   # like `pilattice ARGV...`
    python3 perfbench/opchild.py session plain|trace JSON  # library session
    python3 perfbench/opchild.py setup plain JSON          # import and build models

In ``trace`` mode the layer wrappers are installed after import and the
trace summary is written as the last line of stderr, after the marker
``TRACE_MARKER``.  Either way the op itself runs exactly as a user's
would: the CLI through ``pilattice.cli.main``, the session through the
library functions.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TRACE_MARKER = "PERFBENCH-TRACE "

CONSTRUCTORS = {"cyclic": "cyclic_ring", "ut2": "ut2", "grassmann": "grassmann"}


def _import_pilattice():
    sys.path.insert(0, str(SRC))
    import pilattice
    import pilattice.cli

    where = Path(pilattice.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"opchild: imported pilattice from {where}, not from {SRC}")
    return pilattice


def _build(pilattice, spec):
    family, *params = spec
    return getattr(pilattice.rings, CONSTRUCTORS[family])(*params)


def _session(pilattice, payload: dict) -> dict:
    from pilattice.pitheory import kernel_lattice, ordinary_codim

    results = []
    for spec in payload["models"]:
        start = time.perf_counter()
        model = _build(pilattice, spec)
        degrees = {}
        for n in payload["degrees"]:
            report = ordinary_codim(model, n, include_proper=True)
            kernel = kernel_lattice(model, n)
            pivots = 1
            for row, p in zip(kernel.rows, kernel.pivots):
                pivots *= row[p]
            degrees[str(n)] = {
                "ordinary": report.ordinary.to_json(),
                "proper": report.proper.to_json(),
                "kernel_rank": kernel.rank,
                "kernel_pivot_product": str(pivots),
            }
        results.append(
            {"model": spec, "op_s": time.perf_counter() - start, "degrees": degrees}
        )
    return {"results": results}


def main(argv) -> int:
    mode, tracing, *rest = argv
    pilattice = _import_pilattice()
    tracer = None
    if tracing == "trace":
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    try:
        if mode == "cli":
            code = pilattice.cli.main(rest)
        elif mode == "session":
            json.dump(_session(pilattice, json.loads(rest[0])), sys.stdout)
            code = 0
        elif mode == "setup":
            for spec in json.loads(rest[0]):
                _build(pilattice, spec)
            code = 0
        else:
            raise SystemExit(f"opchild: unknown mode {mode!r}")
    finally:
        sys.stdout.flush()
        if tracer is not None:
            sys.stderr.write("\n" + TRACE_MARKER + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
