"""Wall-clock benchmark of the reconfigurable-scheduling library.

Run from the repository root::

    python3 perfbench/run.py --workload stream_contended --seed 3 \\
        --seconds 58 --trace 0

One process, no threads, no worker pool.  The workload's inputs are made
from ``--seed``; the library (imported from ``./src``) only ever sees
those generated inputs.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` a separate traced run's per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric with its value and unit).

``--held-out`` derives the inputs from a seed namespace disjoint from
the plain ``--seed`` one, so a claim can be re-checked on inputs nobody
looked at while writing the change.  ``--write-reference`` records the
default seed's outputs (and the probes') in ``reference.json``.

Every run also runs a small fixed *probe* of each other operation
family, so every metric is defined on every workload; see ``spec.json``
for the workloads, the metric definitions and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layertrace import LayerTrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
#: Probes use fixed inputs, so their metrics and outputs do not depend
#: on the workload seed.
PROBE_SEED = 0
SETUP_REPEATS = 5


def _import_library():
    """Import the library from ``./src`` (and only from there), afresh.

    Modules of an earlier import are dropped first, so every set-up
    repeat pays the library's own import (numpy, which it imports, stays
    loaded after the first).
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no library sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [name for name in sys.modules
                 if name in ("repro", "families") or name.startswith("repro.")]:
        del sys.modules[name]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    import families
    import numpy

    return families, numpy


def _workloads(families):
    """Main work per workload with the number of slices its inputs are
    run in (one slice per cycle), and the probe sizing of every family."""
    main = {
        "stream_contended": (
            families.StreamFamily(warmup_segments=4, measured_segments=32), 1
        ),
        "offline_exact": (families.OfflineFamily(cells=32, horizon=48), 2),
    }
    probes = {
        "stream": families.StreamFamily(warmup_segments=2, measured_segments=24),
        "offline": families.OfflineFamily(cells=2, horizon=64),
        "search": families.SearchFamily(searches=4, iterations=8),
        "pipeline": families.PipelineFamily(per_kind=2, horizon=250),
    }
    return main, probes


def wrapper_paths(trace) -> list:
    """``(module:attr path, span, on_result)`` for every global wrapper."""

    def distribute_counts(result, _):
        trace.count("reductions.distribute.subcolors", len(result[1].to_original))

    def instance_builds(result, _):
        trace.count("core.instance.builds")

    def checkpoint_bytes(path, _):
        trace.count("streaming.checkpoint.bytes", Path(path).stat().st_size)

    return [
        ("repro.streaming.session:RequestSequence", "core.instance.build", None),
        ("repro.streaming.session:Instance", "core.instance.build", instance_builds),
        ("repro.simulation.engine:BatchedEngine.__init__", "simulation.engine.build", None),
        ("repro.simulation.engine:BatchedEngine.run", "simulation.engine.run", None),
        ("repro.simulation.engine:BatchedEngine.export_state", "simulation.engine.state_io", None),
        ("repro.simulation.engine:BatchedEngine.import_state", "simulation.engine.state_io", None),
        ("repro.streaming.session:StreamSession.checkpoint", "streaming.checkpoint.save", None),
        ("repro.streaming.checkpoint:StreamCheckpoint.save", "streaming.checkpoint.save", checkpoint_bytes),
        ("repro.obs.timeseries:SeriesRecorder.sample", "obs.timeseries.sample", None),
        ("repro.offline.optimal:warm_start_incumbent", "offline.lower_bounds.warm_start", None),
        ("repro.offline.lower_bounds:IntervalPackingRelaxation.floor", "offline.lower_bounds.packing_floor", None),
        ("repro.offline.lower_bounds:ColorPhaseBound.floor", "offline.lower_bounds.phase_floor", None),
        ("repro.offline.optimal:pending_drop_floor", "offline.lower_bounds.pending_floor", None),
        ("repro.offline.optimal:pending_reconfig_floor", "offline.lower_bounds.pending_floor", None),
        ("repro.offline.optimal:verify_schedule", "core.validation.verify", None),
        ("repro.analysis.adversary_search:simulate", "analysis.adversary_search.online", None),
        ("repro.analysis.adversary_search:best_offline_heuristic", "offline.heuristic.best", None),
        ("repro.offline.heuristic:simulate_general", "simulation.general.run", None),
        ("repro.simulation.general:simulate_general", "simulation.general.run", None),
        ("repro.reductions.varbatch:varbatch_instance", "reductions.varbatch.transform", None),
        ("repro.reductions.arbitrary:generalize_bounds_instance", "reductions.arbitrary.transform", None),
        ("repro.reductions.distribute:distribute_instance", "reductions.distribute.transform", distribute_counts),
        ("repro.reductions.distribute:map_back_schedule", "reductions.distribute.map_back", None),
        ("repro.reductions.pipeline:verify_schedule", "core.validation.verify", None),
    ]


#: Top-level spans whose self time no layer metric reports.
UNATTRIBUTED = ("streaming.session.run", "reductions.pipeline.run")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace, prune_sources) -> dict[str, float]:
    """Per-layer metric values from one (averaged) traced pass."""
    total, own, calls, counts = trace.total, trace.self_time, trace.calls, trace.counts
    values = {
        "streaming.sources.batch_s": total["streaming.sources.batch"],
        "streaming.sources.jobs": counts["streaming.sources.jobs"],
        "streaming.ingest.admit_s": total["streaming.ingest.admit"],
        "streaming.ingest.rejection_rate": _ratio(
            counts["streaming.ingest.rejected"], counts["streaming.ingest.offered"]
        ),
        "core.instance.build_s": total["core.instance.build"],
        "core.instance.builds": counts["core.instance.builds"],
        "simulation.engine.build_s": total["simulation.engine.build"],
        "simulation.engine.run_s": total["simulation.engine.run"],
        "simulation.engine.calls": calls["simulation.engine.run"],
        "simulation.engine.state_io_s": total["simulation.engine.state_io"],
        "simulation.engine.rounds_executed": counts["simulation.engine.rounds_executed"],
        "simulation.engine.rounds_fast_forwarded": counts[
            "simulation.engine.rounds_fast_forwarded"
        ],
        "simulation.engine.order_cache_hit_ratio": _ratio(
            counts["simulation.engine.order_cache_hits"],
            counts["simulation.engine.order_cache_hits"]
            + counts["simulation.engine.order_cache_misses"],
        ),
        "algorithms.reconfigure_s": total["algorithms.reconfigure"],
        "algorithms.reconfigure_calls": calls["algorithms.reconfigure"],
        "streaming.checkpoint.save_s": total["streaming.checkpoint.save"],
        "streaming.checkpoint.bytes": counts["streaming.checkpoint.bytes"],
        "obs.timeseries.sample_s": total["obs.timeseries.sample"],
        "offline.optimal.self_s": own["offline.optimal"],
        "offline.optimal.nodes_expanded": counts["offline.optimal.nodes_expanded"],
        "offline.optimal.nodes_per_s": _ratio(
            counts["offline.optimal.nodes_expanded"], total["offline.optimal"]
        ),
        "offline.lower_bounds.warm_start_s": total["offline.lower_bounds.warm_start"],
        "offline.lower_bounds.packing_floor_s": total[
            "offline.lower_bounds.packing_floor"
        ],
        "offline.lower_bounds.phase_floor_s": total["offline.lower_bounds.phase_floor"],
        "offline.lower_bounds.pending_floor_s": total[
            "offline.lower_bounds.pending_floor"
        ],
        "offline.heuristic.best_s": total["offline.heuristic.best"],
        "simulation.general.run_s": total["simulation.general.run"],
        "analysis.adversary_search.online_s": total["analysis.adversary_search.online"],
        "analysis.adversary_search.self_s": own["analysis.adversary_search"],
        "analysis.adversary_search.evaluations": counts[
            "analysis.adversary_search.evaluations"
        ],
        "analysis.adversary_search.score_cache_hit_ratio": _ratio(
            counts["analysis.adversary_search.cache_hits"],
            counts["analysis.adversary_search.cache_hits"]
            + counts["analysis.adversary_search.cache_misses"],
        ),
        "reductions.varbatch.transform_s": total["reductions.varbatch.transform"],
        "reductions.arbitrary.transform_s": total["reductions.arbitrary.transform"],
        "reductions.distribute.transform_s": total["reductions.distribute.transform"],
        "reductions.distribute.map_back_s": total["reductions.distribute.map_back"],
        "reductions.distribute.subcolors": counts["reductions.distribute.subcolors"],
        "core.validation.verify_s": total["core.validation.verify"],
    }
    for source in prune_sources:
        values[f"offline.optimal.pruned.{source}"] = counts[
            f"offline.optimal.pruned.{source}"
        ]
    attributed = sum(
        seconds for name, seconds in own.items() if name not in UNATTRIBUTED
    )
    values["trace.coverage"] = _ratio(attributed, trace.wall)
    return values


class Tally:
    """Attempted and failed operations, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons.append(reason)

    def settle(self, op, label: str):
        """Count an op's calls and failures, run its output checks (then
        drop them, and what they hold) and return the op."""
        self.attempted += op.attempted
        for error in op.errors:
            self.fail(f"{label}: {error}")
        for check in op.checks:
            try:
                problem = check()
            except Exception as exc:  # a check that cannot run is a failure
                problem = f"check raised {exc!r}"
            if problem is not None:
                self.fail(f"{label}: {problem}")
        op.checks.clear()
        return op

    def compare(self, label: str, got: list, expected: list) -> None:
        """Count each call whose output differs from the expected one."""
        if len(got) != len(expected):
            self.fail(f"{label}: {len(got)} outputs, expected {len(expected)}",
                      max(len(got), len(expected)))
            return
        bad = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
        if bad:
            self.fail(f"{label}: calls {bad} differ: {got[bad[0]]} != "
                      f"{expected[bad[0]]}", len(bad))


def _normalise(outputs: list) -> list:
    """Outputs as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(outputs))


def _traced_op(family, inputs, workdir, trace):
    began = perf_counter()
    with trace.installed(wrapper_paths(trace)):
        op = family.run(inputs, workdir, trace)
    trace.wall += perf_counter() - began
    return op


def piece_minima(slices) -> tuple[list[float], list]:
    """Each piece's fastest time over the repeats of its slice, and its
    work, slice after slice.  ``slices`` holds, per slice of an op's
    inputs, the repeats of the op over that slice.

    Repeats run at different moments of the run, so a burst of machine
    noise that slows one repeat of a piece rarely slows all of them.
    """
    times, work = [], []
    for ops in slices:
        ops = [op for op in ops if op.pieces]
        if not ops:
            continue
        count = min(len(op.pieces) for op in ops)
        times += [min(op.pieces[i] for op in ops) for i in range(count)]
        work += ops[0].work[:count]
    return times, work


def rate(slices) -> float:
    """Work per second over the pieces that report work."""
    times, work = piece_minima(slices)
    timed = [(t, w) for t, w in zip(times, work) if w is not None]
    return _ratio(sum(w for _, w in timed), sum(t for t, _ in timed))


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Runs:
    """Everything one benchmark run executed, in the order it ran."""

    family: object
    #: Untraced repeats of the main op, one list per slice of its inputs.
    plain: list = field(default_factory=list)
    #: ``(LayerTrace, OpResult)`` per traced repeat, one list per slice.
    traced: list = field(default_factory=list)
    #: Untraced probe ops per family, one per probe set.
    probe_ops: dict = field(default_factory=dict)
    probe_trace: LayerTrace = field(default_factory=LayerTrace)
    probe_traced: dict = field(default_factory=dict)

    def family_ops(self, name: str) -> list:
        """Untraced ops of a family by slice: the main repeats, or its
        probe sets as a single slice."""
        return self.plain if self.family.name == name else [self.probe_ops[name]]

    @property
    def cycles(self) -> int:
        return sum(len(ops) for ops in self.plain)


def measure(family, slices, probes, probe_inputs, seconds, traced, workdir,
            tally) -> Runs:
    """Run cycles until ``seconds`` have passed (at least one per slice).

    A cycle runs the main op over the next slice of its inputs (with
    ``traced``, untraced and then traced) and then one probe set, so
    every piece of work is repeated about as often, at moments spread
    over the whole run.  Each op's output checks run as soon as it
    returns.  Garbage is collected between cycles, outside the timing,
    so every cycle starts from a similar heap.
    """
    runs = Runs(family, plain=[[] for _ in slices], traced=[[] for _ in slices],
                probe_ops={name: [] for name in probes})
    label = family.name
    began = perf_counter()
    while True:
        gc.collect()
        k = runs.cycles % len(slices)
        op = tally.settle(family.run(slices[k], workdir),
                          f"{label} slice {k} rep {len(runs.plain[k])}")
        runs.plain[k].append(op)
        if traced:
            trace = LayerTrace()
            op = _traced_op(family, slices[k], workdir, trace)
            runs.traced[k].append((trace, tally.settle(
                op, f"{label} slice {k} traced rep {len(runs.traced[k])}")))
        for name, probe in probes.items():
            ops = runs.probe_ops[name]
            ops.append(tally.settle(probe.run(probe_inputs[name], workdir),
                                    f"probe {name} set {len(ops)}"))
        cycles = runs.cycles
        if cycles >= len(slices) and (
            (perf_counter() - began) * (cycles + 1) / cycles > seconds
        ):
            break
    if traced:
        for name, probe in probes.items():
            op = _traced_op(probe, probe_inputs[name], workdir, runs.probe_trace)
            runs.probe_traced[name] = tally.settle(op, f"probe {name} traced")
    return runs


def first_outputs(slices) -> list:
    """The first repeat's outputs of every slice, in input order."""
    return [output for ops in slices for output in _normalise(ops[0].outputs)]


def compare_outputs(runs: Runs, tally: Tally, reference: dict, label: str) -> None:
    """Compare outputs across repeats, traced against untraced, and (where
    ``reference`` has them) to the reference values."""
    for k, ops in enumerate(runs.plain):
        first = _normalise(ops[0].outputs)
        for i, op in enumerate(ops[1:], 1):
            tally.compare(f"{label} slice {k} rep {i} vs rep 0",
                          _normalise(op.outputs), first)
        for i, (_, op) in enumerate(runs.traced[k]):
            tally.compare(f"{label} slice {k} traced rep {i} vs untraced",
                          _normalise(op.outputs), first)
    if label in reference["workloads"]:
        tally.compare(f"{label} vs reference", first_outputs(runs.plain),
                      reference["workloads"][label])
    for name, ops in runs.probe_ops.items():
        probe_first = _normalise(ops[0].outputs)
        for i, op in enumerate(ops[1:], 1):
            tally.compare(f"probe {name} set {i} vs set 0",
                          _normalise(op.outputs), probe_first)
        if name in runs.probe_traced:
            tally.compare(f"probe {name} traced vs untraced",
                          _normalise(runs.probe_traced[name].outputs), probe_first)
        if name in reference["probes"]:
            tally.compare(f"probe {name} vs reference",
                          probe_first, reference["probes"][name])


def end_to_end_metrics(runs: Runs, setup_s: float) -> dict[str, float]:
    times, work = piece_minima(runs.family_ops("stream"))
    segments = [t for t, w in zip(times, work) if w is not None]
    print(f"perfbench: stream.segment_ms over {len(segments)} segments",
          file=sys.stderr)
    return {
        "setup_s": setup_s,
        "wall_s": sum(piece_minima(runs.plain)[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stream.rounds_per_s": rate(runs.family_ops("stream")),
        "stream.segment_ms.p50": 1000 * _percentile(segments, 50),
        "stream.segment_ms.p90": 1000 * _percentile(segments, 90),
        "search.evals_per_s": rate(runs.family_ops("search")),
        "pipeline.jobs_per_s": rate(runs.family_ops("pipeline")),
    }


def per_layer_metrics(runs: Runs, prune_sources) -> dict[str, float]:
    """Layer metrics of one traced pass: the mean traced repeat of each
    slice of the main op, plus the traced probe set."""
    per_pass = LayerTrace()
    for pairs in runs.traced:
        per_pass.add(LayerTrace.mean([trace for trace, _ in pairs]))
    per_pass.add(runs.probe_trace)
    values = layer_metrics(per_pass, prune_sources)
    untraced_s = sum(piece_minima(runs.plain)[0]) + sum(
        sum(piece_minima([ops])[0]) for ops in runs.probe_ops.values()
    )
    traced_s = sum(
        piece_minima([[op for _, op in pairs] for pairs in runs.traced])[0]
    ) + sum(op.seconds for op in runs.probe_traced.values())
    values["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    default_seed = args.seed == DEFAULT_SEED and not args.held_out
    if args.write_reference and not default_seed:
        parser.error("--write-reference records the default seed only")

    # Set-up, several times: the library's import, input generation and
    # construction.  The first repeat also imports numpy.
    setups = []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        try:
            families, numpy = _import_library()
        except ImportError as exc:
            print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
            return 2
        main_families, probe_families = _workloads(families)
        if args.workload not in main_families:
            parser.error(f"unknown workload {args.workload!r}")
        family, parts = main_families[args.workload]
        probes = {
            name: probe for name, probe in probe_families.items()
            if name != family.name
        }
        seed = families.derive(args.seed, "held-out" if args.held_out else "seed")
        probe_seed = families.derive(PROBE_SEED, "probe")
        inputs = family.prepare(seed)
        probe_inputs = {name: p.prepare(probe_seed) for name, p in probes.items()}
        setups.append(perf_counter() - began)
    setup_s = statistics.median(setups)
    slices = [inputs] if parts == 1 else [
        inputs[k * len(inputs) // parts:(k + 1) * len(inputs) // parts]
        for k in range(parts)
    ]

    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runs = measure(family, slices, probes, probe_inputs, args.seconds,
                       args.trace == 1, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference_path = HERE / "reference.json"
    reference = json.loads(reference_path.read_text())
    expected = {"workloads": {}, "probes": {}}
    if not args.write_reference:
        expected["probes"] = reference["probes"]
        if default_seed:
            expected["workloads"] = reference["workloads"]
    compare_outputs(runs, tally, expected, args.workload)
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)

    if args.write_reference:
        if tally.failed:
            return 1
        reference["workloads"][args.workload] = first_outputs(runs.plain)
        for name, ops in runs.probe_ops.items():
            reference["probes"][name] = _normalise(ops[0].outputs)
        reference_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    if args.trace:
        values = per_layer_metrics(runs, families.PRUNE_SOURCES)
        names = [m["name"] for m in bench["per_layer"]]
    else:
        values = end_to_end_metrics(runs, setup_s)
        names = [m["name"] for m in bench["end_to_end"]]
    print(
        f"perfbench: {args.workload} seed={args.seed}"
        f"{' (held out)' if args.held_out else ''} cycles={runs.cycles}"
        f" slices={len(runs.plain)} cores={os.cpu_count()}"
        f" python={platform.python_version()} numpy={numpy.__version__}",
        file=sys.stderr,
    )
    for name in names:
        print(f"  {name:48s} {values[name]:>16.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
