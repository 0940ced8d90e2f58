"""Outside-in layer trace: wrap the public functions of each pilattice
module and record spans and counters from the benchmark's own code.

A function is patched under every module attribute that holds it, so a
call is timed wherever the caller looks the name up (``pitheory`` calls
``image_invariants`` through its own namespace, so patching only
``lattices.image_invariants`` would time nothing).  A layer's ``_s``
metric is self time: span time minus the time of the spans nested in it.
"""

from __future__ import annotations

import importlib
import time

MODULES = (
    "pilattice", "pilattice.cli", "pilattice.pitheory", "pilattice.rings",
    "pilattice.lattices", "pilattice.multilinear", "pilattice.specht",
)

# span name -> (defining module, function name)
SPANS = {
    "pitheory.eval": [("pilattice.pitheory", "evaluation_functionals")],
    "pitheory.claim": [("pilattice.pitheory", "run_claim")],
    "lattices.image": [("pilattice.lattices", "image_invariants")],
    "lattices.kernel": [("pilattice.lattices", "evaluation_kernel")],
    "multilinear.proper_basis": [("pilattice.multilinear", "proper_basis")],
    "specht.lattice": [("pilattice.specht", "specht_lattice")],
    "specht.induce": [("pilattice.specht", "induce_mod")],
    "specht.psi": [("pilattice.specht", "verify_psi_lemma")],
    "specht.character": [("pilattice.specht", "specht_character"),
                         ("pilattice.specht", "rational_character")],
    "cli.emit": [("pilattice.cli", "_emit")],
}


class Tracer:
    """Span statistics and counters of one process."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [child time] per open span
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {
            "rings.tuples": 0, "pitheory.rows_out": 0, "pitheory.row_slots": 0,
            "lattices.kernel_rank": 0, "lattices.builder_adds": 0,
        }
        self.max_entry_bits = 0

    def span(self, name: str, fn, after=None):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            before = self.counts["rings.tuples"]
            self.stack.append([0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                (child,) = self.stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
                if self.stack:
                    self.stack[-1][0] += elapsed
            if after is not None:
                after(args, result, self.counts["rings.tuples"] - before)
            return result

        return wrapper

    def _after_eval(self, args, rows, tuples):
        model = args[0]
        self.counts["pitheory.rows_out"] += len(rows)
        self.counts["pitheory.row_slots"] += tuples * model.rank

    def _after_kernel(self, args, lattice, tuples):
        self.counts["lattices.kernel_rank"] += lattice.rank
        bits = max((abs(x).bit_length() for row in lattice.rows for x in row), default=0)
        self.max_entry_bits = max(self.max_entry_bits, bits)

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
            "max_entry_bits": self.max_entry_bits,
        }


def _replace_everywhere(modules, original, replacement) -> int:
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Patch every traced function of the imported pilattice modules.

    Raises LookupError if a traced function no longer exists, so a rename
    fails the traced run instead of reporting zero time."""
    modules = [importlib.import_module(name) for name in MODULES]
    afters = {"pitheory.eval": tracer._after_eval, "lattices.kernel": tracer._after_kernel}
    for name, targets in SPANS.items():
        for module_name, func_name in targets:
            original = getattr(importlib.import_module(module_name), func_name, None)
            if original is None:
                raise LookupError(f"{module_name}.{func_name} is gone; update SPANS")
            wrapped = tracer.span(name, original, afters.get(name))
            _replace_everywhere(modules, original, wrapped)

    rings = importlib.import_module("pilattice.rings")
    lattices = importlib.import_module("pilattice.lattices")
    model_init = rings.RingModel.__init__
    rings.RingModel.__init__ = tracer.span("rings.build", model_init)

    add = lattices.LatticeBuilder.add
    counts = tracer.counts

    def counted_add(self, row):
        counts["lattices.builder_adds"] += 1
        return add(self, row)

    lattices.LatticeBuilder.add = counted_add

    generator_tuples = rings.generator_tuples

    def counted_tuples(model, n):
        for tup in generator_tuples(model, n):
            counts["rings.tuples"] += 1
            yield tup

    if not _replace_everywhere(modules, generator_tuples, counted_tuples):
        raise LookupError("rings.generator_tuples is gone; update layertrace")
