"""pointmeta benchmark: one workload per invocation, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload metatrain-p32-fo --seed 0 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics untraced,
the per-layer metrics with ``--trace 1``).  The line before it records the
machine and settings; a fuller report (checks, sample counts, exact
counters) and, when traced, every span go to ``.bench_out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread is faster at P=32 and as fast at
# P=1024 on a 2-core machine, and it keeps a core free for machine noise
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("metatrain-p32-fo", "metatrain-p1024-so", "cli-synth-ingest-eval")
DEFAULT_SEED = 0


def _machine(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": _commit(),
    }


def _commit():
    """The checked-out commit when run from the top of a git work tree, else None."""
    if not Path(".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _as_metrics(values: dict) -> dict:
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pointmeta" / "__init__.py").is_file():
        print(f"error: {root} has no src/pointmeta; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import pointmeta

    if Path(pointmeta.__file__).resolve().parent != (root / "src" / "pointmeta").resolve():
        print(f"error: imported pointmeta from {pointmeta.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    import probes
    import workloads

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[args.workload]
    run = workloads.Run(args.seed, reference if args.seed == DEFAULT_SEED else None)
    # relative, so that no output (run.json holds the data root) depends on
    # where the checkout is
    work = Path(".bench_work") / args.workload
    out_dir = Path(".bench_out")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        workloads.gradcheck(run)
        if args.workload == "cli-synth-ingest-eval":
            result, tracer = workloads.cli_flow(run, work, args.seconds, bool(args.trace))
        else:
            result, tracer = workloads.metatrain(args.workload, run, work, args.seconds, bool(args.trace))
    except workloads.PointMetaError as exc:
        run.check("workload completed", False, repr(exc))
        (out_dir / f"{stem}.json").write_text(json.dumps({"checks": run.checks}, indent=2) + "\n", encoding="utf-8")
        print(json.dumps({"correct": False, "attempted": max(run.attempted, run.failed), "failed": run.failed,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"machine": _machine(args.seed), "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "samples": {"steps": len(result.steps), "setups": len(result.setup_s),
                                               "adapt_evals": len(result.adapt_eval_s)},
              "raw": {k: getattr(result, k) for k in ("setup_s", "synth_pps", "ingest_pps", "steps", "adapt_eval_s")}}
    if args.trace:
        values, counts = probes.layer_metrics(tracer.spans, result.overhead_ratio)
        for name, series in counts.items():
            run.check(f"exact counter {name} repeats on every step", len(set(series)) == 1, series[:3])
        run.observe("step_counts", {k: v[0] for k, v in counts.items()})
        run.observe("bytes", {k: values[k] for k in probes.BYTES})
        units = {name: unit for name, unit, _ in probes.PER_LAYER}
        metrics = {name: {"value": float(values[name]), "unit": units[name]} for name, *_ in probes.PER_LAYER}
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = _as_metrics(result.end_to_end(peak_rss_mb))

    correct = all(c["ok"] for c in run.checks)
    report.update(summary=_as_metrics(result.summary(run)), checks=run.checks, observed=run.observed, metrics=metrics)
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({key: report[key] for key in ("machine", "samples", "summary")}))
    failed = min(run.failed, run.attempted)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
