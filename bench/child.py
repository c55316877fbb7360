"""One fresh-interpreter step of the benchmark; bench.py starts it.

    python3 bench/child.py setup
    python3 bench/child.py pass   <workload> <input dir> <output dir>
    python3 bench/child.py traced <workload> <input dir> <output dir>

``setup`` prints the seconds to import morphoprof and finish one
warm-up ``run``.  ``pass`` times one untraced pass; ``traced`` replays
the pass with spans and, for extraction workloads, adds the decomposed
pass and a one-worker ``run``.  Both write ``result.json`` into the
output directory.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]


def _check_origin(module) -> None:
    # Measure the checkout's own sources, never an installed copy.
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"morphoprof imported from {module.__file__}, not from {SRC}")


def setup() -> None:
    import morphoprof as mp
    import numpy as np

    yy, xx = np.mgrid[0:32, 0:32]
    labels = np.zeros((32, 32), dtype=np.int64)
    labels[(yy - 9) ** 2 + (xx - 9) ** 2 <= 36] = 1
    labels[18:28, 4:12] = 2
    labels[((yy - 22) ** 2 + (xx - 22) ** 2 <= 49) & ((yy - 22) ** 2 + (xx - 22) ** 2 >= 4)] = 3
    spec = mp.ExperimentSpec(
        channels=(("A", mp.ImagePlane(0.5 + 0.4 * np.sin(yy / 3.0) * np.cos(xx / 5.0))),
                  ("B", mp.ImagePlane((yy * 32 + xx) / 1024.0))),
        object_sets=(("warm", mp.LabelMask(labels)),),
    )
    (table,) = mp.run(spec)
    elapsed = time.perf_counter() - _T0
    _check_origin(mp)
    if table.n_rows != 3:
        sys.exit(f"warm-up run measured {table.n_rows} objects, expected 3")
    print(json.dumps({"setup_s": elapsed}))


def _peak_rss_mib(workers: int) -> float:
    """Computed upper bound: own peak plus ``workers`` times the largest
    peak among waited-for children (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _cpu(times) -> float:
    return times.user + times.system + times.children_user + times.children_system


def one_pass(kind: str, inputs: Path, outputs: Path, traced: bool) -> None:
    import morphoprof
    import tracing
    import workloads

    _check_origin(morphoprof)
    manifest = json.loads((inputs / "manifest.json").read_text())
    tracer = tracing.Tracer("replay") if traced else tracing.NULL

    cpu0, t0 = os.times(), time.perf_counter()
    with tracer.span("pass"):
        state = workloads.timed_pass(kind, inputs, outputs, manifest, tracer)
    wall = time.perf_counter() - t0
    cpu = _cpu(os.times()) - _cpu(cpu0)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": _peak_rss_mib(workloads.WORKERS[kind]),
        "objects": manifest.get("objects"),
        "checks": workloads.pass_checks(kind, manifest, state),
    }
    if traced:
        if kind != "tables":
            _decompose(state, outputs, tracer, workloads)
        spans = tracer.closed()
        result["layers"] = _layers(kind, inputs, outputs, manifest, state, spans, workloads)
        result["spans"] = tracing.to_records(spans)
    (outputs / "result.json").write_text(json.dumps(result))


def _decompose(state, outputs: Path, tracer, workloads) -> None:
    """Per-object public calls, then ``run`` at one and at two workers,
    each writing a CSV."""
    import morphoprof as mp

    tracer.pass_id = "decomposed"
    with tracer.span("pass"):
        table, regions = workloads.decomposed_table(state["spec"], state["mask"], tracer)
        with tracer.span("raster_io.write_table"):
            mp.write_table(table, outputs / "decomposed.csv")
    state["regions"] = regions
    for workers in (1, 2):
        tracer.pass_id = f"w{workers}"
        with tracer.span("pass"):
            with tracer.span(f"engine.run_w{workers}"):
                (table,) = mp.run(workloads.with_workers(state["spec"], workers))
            with tracer.span("raster_io.write_table"):
                mp.write_table(table, outputs / f"cells_w{workers}.csv")


def _layers(kind, inputs, outputs, manifest, state, spans, workloads) -> dict[str, float]:
    import tracing

    tot = tracing.totals(spans)

    def busy(name, pass_id="replay"):
        return tot.get((pass_id, name), (0.0, 0))[0]

    def size(*paths):
        return float(sum(p.stat().st_size for p in paths))

    out = {
        "raster_io.load_image_s": busy("raster_io.load_image"),
        "raster_io.load_mask_s": busy("raster_io.load_mask"),
        "raster_io.read_table_s": busy("raster_io.read_table"),
        "raster_io.write_table_s": busy("raster_io.write_table"),
        "raster_io.save_mask_s": busy("raster_io.save_mask"),
    }
    if kind == "tables":
        kept = state["kept"].labels
        out.update({
            "raster_io.bytes_read": size(inputs / "a.csv", inputs / "b.csv",
                                         inputs / manifest["tissue"]),
            "raster_io.table_bytes": size(outputs / "filtered.csv"),
            "postprocess.robust_standardize_s": busy("postprocess.robust_standardize"),
            "postprocess.correlation_filter_s": busy("postprocess.correlation_filter"),
            "postprocess.compare_tables_s": busy("postprocess.compare_tables"),
            "postprocess.write_report_s": busy("postprocess.write_report"),
            "postprocess.columns_in": float(len(state["table_a"].columns)),
            "postprocess.columns_kept": float(len(state["filtered"].columns)),
            "tessellate.hex_tessellation_s": busy("tessellate.hex_tessellation"),
            "tessellate.filter_by_coverage_s": busy("tessellate.filter_by_coverage"),
            "tessellate.hexes": float(state["hexes"].labels.max()),
            "tessellate.hexes_kept": float(len(set(kept[kept > 0].tolist()))),
        })
        return out

    regions = state["regions"]
    family_busy = 0.0
    for (pass_id, name), (seconds, calls) in tot.items():
        family, _, call = name.partition(".")
        if pass_id == "decomposed" and call.startswith("measure_"):
            out[f"{family}.busy_s"] = seconds
            out[f"{family}.calls"] = float(calls)
            family_busy += seconds
    extract = busy("core.extract_objects", "decomposed")
    run_w1, run_w2 = busy("engine.run_w1", "w1"), busy("engine.run_w2", "w2")
    n_channels = len(manifest["images"])
    out.update({
        "raster_io.bytes_read": size(*(inputs / n for n in manifest["images"]),
                                     inputs / manifest["mask"]),
        "raster_io.table_bytes": size(outputs / "cells.csv"),
        "core.extract_objects_s": extract,
        "core.objects": float(len(regions)),
        "core.max_label": float(regions[-1].label),
        "engine.run_w1_s": run_w1,
        "engine.run_w2_s": run_w2,
        "engine.parallel_speedup": run_w1 / run_w2,
        "engine.batches": float(math.ceil(len(regions) / workloads.BATCH_SIZE)),
        "engine.self_s": run_w1 - extract - family_busy,
        "engine.crop_bytes": float(sum(
            r.local_mask.size * 8 * n_channels for r in regions)),
    })
    return out


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"]:
        setup()
    elif len(argv) == 4 and argv[0] in ("pass", "traced"):
        one_pass(argv[1], Path(argv[2]), Path(argv[3]), traced=argv[0] == "traced")
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
