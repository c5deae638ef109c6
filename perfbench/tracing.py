"""Span tracing from outside the program, and the per-layer metrics.

A traced job runs in a fresh interpreter.  install() wraps every public
function named in LAYERS and rebinds the wrapper in each parorb module
that holds the function (cli, chenruan, shifts and oracles use
`from .x import y`, so the same function sits under several names).  Each
call becomes a span: name, start, end, parent span, kept in compact arrays
in memory and written once by Recorder.dump() when the job ends.  The
parent benchmark process reads the files back with load() and folds them
into per-layer metrics with layer_metrics().

A span's self time is its duration minus the time its child spans cover;
spans nest strictly (one thread), so that is the sum of its direct
children's durations.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array

UNITS = {"calls": "count", "self_s": "s", "items": "count", "reps": "count",
         "hit_ratio": "ratio"}
# the public functions a traced job wraps, and the statistics reported
# for each
LAYERS = (
    ("partitions.compute_orbit_section", "calls self_s items reps"),
    ("partitions.orbit_canonical", "calls self_s hit_ratio"),
    ("partitions.enumerate_partitions", "items self_s"),
    ("shifts.dominance_count", "calls self_s hit_ratio"),
    ("shifts.eigenvalue_multiplicities", "calls self_s"),
    ("shifts.degree_shift", "calls self_s"),
    ("shifts.total_codimension", "calls self_s"),
    ("torsion.element_order", "calls self_s"),
    ("torsion.count_elements_of_order", "calls self_s"),
    ("torsion.cyclic_subgroup_equal", "calls self_s"),
    ("fixed_loci.fixed_locus_components", "calls self_s"),
    ("fixed_loci.intersection_support", "calls self_s"),
    ("chenruan.product_support", "calls self_s"),
    ("chenruan.pairing_support", "calls self_s"),
    ("chenruan.twisted_sector", "calls self_s"),
    ("chenruan.chen_ruan_table", "calls self_s"),
    ("chenruan.euler_vanishing_certificate", "calls self_s"),
    ("eigenflag.flag_compatible_eigenbasis", "calls self_s items"),
    ("oracles.brute_force_order_census", "self_s items"),
    ("oracles.brute_force_partition_census", "self_s items"),
    ("oracles.check_dominance_pairing", "self_s items"),
    ("oracles.check_dimension_identity", "self_s items"),
    ("cli.run", "self_s"),
    ("cli.render_json", "self_s"),
    ("arith.format_rational", "calls"),
    ("model.load_spec", "self_s"),
    ("chenruan.load_betti_tables", "self_s"),
)
# (metric name, unit): the per-layer metrics, in BENCHMARK.json order
LAYER_METRICS = tuple(
    ("%s.%s" % (fn, stat), UNITS[stat]) for fn, stats in LAYERS for stat in stats.split()
) + (("cli.output_bytes", "bytes"), ("trace.spans", "count"), ("trace.overhead_ratio", "ratio"))
# public lru_cache functions: their cache_info() gives the hit ratio
CACHED = tuple(fn for fn, stats in LAYERS if "hit_ratio" in stats.split())

# work counts recorded at the span boundary: name -> f(args, result)
COUNTS = {
    "partitions.compute_orbit_section":
        lambda args, result: {"items": result.partition_count, "reps": result.orbit_count},
    "eigenflag.flag_compatible_eigenbasis": lambda args, result: {"items": args[0].dimension},
    "oracles.brute_force_order_census": lambda args, result: {"items": sum(result.values())},
    "oracles.brute_force_partition_census": lambda args, result: {"items": result["count"]},
    "oracles.check_dominance_pairing":
        lambda args, result: {"items": result.get("checked", 0)},
    "oracles.check_dimension_identity":
        lambda args, result: {"items": result.get("checked", 0)},
}


class Recorder:
    """Spans of one job, in columns: name id, start/end ns, parent index."""

    def __init__(self, job: str):
        self.job = job
        self.names: list[str] = []
        self.name_col = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.cached: dict[str, object] = {}

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_col.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def _count(self, name: str, counts: dict) -> None:
        for stat, value in counts.items():
            key = "%s.%s" % (name, stat)
            self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        if name.endswith("enumerate_partitions"):
            return self._wrap_generator(name, name_id, fn)
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count:
                self._count(name, count(args, result))
            return result

        return traced

    def _wrap_generator(self, name: str, name_id: int, fn):
        """A generator's span is each resumption: the work done to yield
        one item, parented to whichever span is consuming it."""
        key = name + ".items"

        def stream(iterator):
            while True:
                index = self._open(name_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.counters[key] = self.counters.get(key, 0) + 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return stream(fn(*args, **kwargs))

        return traced

    def dump(self, path: str) -> None:
        header = {
            "job": self.job,
            "names": self.names,
            "spans": len(self.start),
            "counters": self.counters,
            "cache": {
                name: list(fn.cache_info()[:2]) for name, fn in self.cached.items()
            },
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_col, self.start, self.end, self.parent):
                column.tofile(handle)


def install(recorder: Recorder) -> None:
    """Wrap each LAYERS function and rebind it wherever parorb holds it.

    A function or cache that a later version of parorb no longer has is
    skipped, so its metrics read 0 instead of breaking the traced run.
    """
    import parorb  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sys.modules.items() if n == "parorb" or n.startswith("parorb.")]
    for name, _ in LAYERS:
        module_name, fn_name = name.split(".")
        original = getattr(sys.modules.get("parorb." + module_name), fn_name, None)
        if original is None:
            continue
        if name in CACHED and hasattr(original, "cache_info"):
            recorder.cached[name] = original
        traced = recorder.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)


def load(path: str) -> tuple[dict, dict]:
    """Read one job's span file: (header, per-name {calls, self_ns})."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["spans"]
        columns = []
        for code in ("i", "q", "q", "i"):
            column = array(code)
            column.fromfile(handle, n)
            columns.append(column)
    name_col, start, end, parent = columns
    duration = [e - s for s, e in zip(start, end)]
    covered = [0] * n
    for index, up in enumerate(parent):
        if up >= 0:
            covered[up] += duration[index]
    names = header["names"]
    stats = {name: {"calls": 0, "self_ns": 0} for name in names}
    for index in range(n):
        entry = stats[names[name_col[index]]]
        entry["calls"] += 1
        entry["self_ns"] += duration[index] - covered[index]
    return header, stats


def pass_totals(span_files: list[str]) -> dict:
    """Fold the span files of one traced pass into per-function totals."""
    totals: dict[str, float] = {}
    hits: dict[str, list] = {}
    spans = 0
    for path in span_files:
        header, stats = load(path)
        spans += header["spans"]
        for name, entry in stats.items():
            for stat in ("calls", "self_ns"):
                key = "%s.%s" % (name, stat)
                totals[key] = totals.get(key, 0) + entry[stat]
        for key, value in header["counters"].items():
            totals[key] = totals.get(key, 0) + value
        for name, (hit, miss) in header["cache"].items():
            acc = hits.setdefault(name, [0, 0])
            acc[0] += hit
            acc[1] += miss
    for name, (hit, miss) in hits.items():
        totals[name + ".hit_ratio"] = hit / (hit + miss) if hit + miss else 0.0
    totals["trace.spans"] = spans
    return totals


def layer_metrics(passes: list[dict], output_bytes: int, overhead_ratio: float) -> dict:
    """Per-layer metrics from the totals of each traced pass.

    Counts come from the first traced pass (with the children's fixed hash
    seed they repeat exactly); self times are the median over passes.
    """
    extra = {"cli.output_bytes": output_bytes, "trace.overhead_ratio": overhead_ratio}
    out = {}
    for name, unit in LAYER_METRICS:
        if name in extra:
            value = extra[name]
        elif name.endswith(".self_s"):
            key = name[: -len("self_s")] + "self_ns"
            value = statistics.median(p.get(key, 0) for p in passes) / 1e9
        else:
            value = passes[0].get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
