"""Spans around bredonkit's public functions, installed from outside the library.

``install`` wraps every public module-level function of each layer module,
plus the word-layer methods ``Word.root``, ``Word.__pow__`` and
``Word.substitute``, and rebinds each wrapper in every bredonkit namespace
that imported the original (``bredon.check_hempel``,
``hempel.is_cyclic_rotation``, ``cli.total_derivative``, ...).  A span is
(name, start, end, parent, operation id, hook seconds); spans stay in memory
until the run ends.  A layer's self time is its spans' durations minus the
time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter

LAYERS = (
    "presentation",
    "free_group",
    "fox",
    "int_linalg",
    "hempel",
    "bredon",
    "finite_oracle",
    "cli",
    "errors",
)
WORD_METHODS = {"root": "root", "__pow__": "pow", "substitute": "substitute"}

# Per-layer metrics, in the order BENCHMARK.json lists them.  Times and counts
# are per operation, so runs that complete different numbers of operations
# stay comparable.
NAMED_SELF_MS = {
    "fox.total_derivative.self_ms": ("fox.total_derivative",),
    "presentation.parse.self_ms": ("presentation.parse",),
    "free_group.root.self_ms": ("free_group.root",),
    "free_group.pow.self_ms": ("free_group.pow",),
    "free_group.substitute.self_ms": ("free_group.substitute",),
    "free_group.conjugacy.self_ms": ("free_group.are_conjugate", "free_group.is_cyclic_rotation"),
    "hempel.hnn_roundtrip_check.self_ms": ("hempel.hnn_roundtrip_check",),
    "hempel.build_hnn.self_ms": ("hempel.build_hnn",),
    "int_linalg.smith_normal_form.self_ms": ("int_linalg.smith_normal_form",),
    "finite_oracle.verify_cyclic_resolution.self_ms": ("finite_oracle.verify_cyclic_resolution",),
    "bredon.bredon_full.self_ms": ("bredon.bredon_full",),
    "bredon.ktheory.self_ms": ("bredon.ktheory",),
    "cli.build_parser.self_ms": ("cli.build_parser",),
    "cli.main.self_ms": ("cli.main",),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.on = False
        self.counts: Counter = Counter()
        self.max_entry_bits = 0
        self.longest_fox_word = None
        self.originals: dict = {}

    # -- hooks: counts taken where the work happens ------------------------------

    def _after(self, name, args, result):
        if name == "fox.total_derivative":
            self.counts["fox.terms"] += sum(len(e.terms) for e in result)
            if self.longest_fox_word is None or len(args[0]) > len(self.longest_fox_word):
                self.longest_fox_word = args[0]
        elif name == "presentation.parse":
            self.counts["parse.letters"] += sum(len(r) for r in result.relators)
        elif name == "int_linalg.smith_normal_form":
            bits = max(max(map(abs, m.entries), default=0).bit_length() for m in result)
            self.max_entry_bits = max(self.max_entry_bits, bits)
        elif name == "cli.main" and result != 0:
            self.counts["cli.exit_nonzero"] += 1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, 0.0)
            self._after(name, args, result)
            spans[index] = (name, start, end, parent, self.op, clock() - end)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- reporting -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op, hook in self.spans:
            if parent >= 0:
                covered[parent] += end - start + hook
        return [span[2] - span[1] - c for span, c in zip(self.spans, covered)]

    def fox_peak_kib(self) -> float:
        """tracemalloc peak of one total_derivative call on the longest word seen."""
        if self.longest_fox_word is None:
            return 0.0
        derive = self.originals["fox.total_derivative"]
        tracemalloc.start()
        try:
            derive(self.longest_fox_word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1024

    def metrics(self, ops: int) -> dict[str, float]:
        ops = max(ops, 1)
        selfs = self.self_times()
        by_name: Counter = Counter()
        calls: Counter = Counter()
        for span, s in zip(self.spans, selfs):
            by_name[span[0]] += s
            calls[span[0]] += 1
        out: dict[str, float] = {}
        for layer in LAYERS[:-1]:
            total = sum(v for k, v in by_name.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_ms"] = total * 1000 / ops
        out["errors.created"] = self.counts["errors.created"] / ops
        for metric, names in NAMED_SELF_MS.items():
            out[metric] = sum(by_name[n] for n in names) * 1000 / ops
        out["fox.total_derivative.peak_kib"] = self.fox_peak_kib()
        out["fox.terms"] = self.counts["fox.terms"] / ops
        parse_ms = by_name["presentation.parse"] * 1000
        out["presentation.parse.letters_per_ms"] = (
            self.counts["parse.letters"] / parse_ms if parse_ms else 0.0
        )
        out["hempel.check_hempel.calls"] = calls["hempel.check_hempel"] / ops
        out["int_linalg.smith_normal_form.calls"] = calls["int_linalg.smith_normal_form"] / ops
        homology = calls["int_linalg.homology_invariants"]
        out["int_linalg.snf_per_homology"] = (
            self._snf_under_homology() / homology if homology else 0.0
        )
        out["int_linalg.snf.max_entry_bits"] = float(self.max_entry_bits)
        out["cli.exit_nonzero"] = self.counts["cli.exit_nonzero"] / ops
        return out

    def _snf_under_homology(self) -> int:
        spans = self.spans
        count = 0
        for span in spans:
            if span[0] != "int_linalg.smith_normal_form":
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != "int_linalg.homology_invariants":
                parent = spans[parent][3]
            count += parent >= 0
        return count

    def write_spans(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, hook in self.spans:
                fh.write(
                    json.dumps([name, (start - origin) * 1000, (end - origin) * 1000, parent, op])
                )
                fh.write("\n")


def _modules():
    package = importlib.import_module("bredonkit")
    layers = {name: importlib.import_module(f"bredonkit.{name}") for name in LAYERS}
    return package, layers


def replace_everywhere(original, replacement) -> None:
    """Rebind ``replacement`` wherever a bredonkit namespace holds ``original``."""
    package, layers = _modules()
    for module in (package, *layers.values()):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    package, layers = _modules()
    wrappers = {}
    for layer, module in layers.items():
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                name = f"{layer}.{attr}"
                tracer.originals[name] = value
                wrappers[value] = tracer.wrap(name, value)
    for module in (package, *layers.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])

    word = layers["free_group"].Word
    for method, short in WORD_METHODS.items():
        setattr(word, method, tracer.wrap(f"free_group.{short}", getattr(word, method)))

    base = layers["errors"].BredonkitError

    def counted_init(self, *args):
        if tracer.on:
            tracer.counts["errors.created"] += 1
        Exception.__init__(self, *args)

    base.__init__ = counted_init
