"""The benchmark's workloads: what each one runs, times and checks.

Every workload runs the README quick-start in one process (synthesize a
3-area dataset, ingest it, meta-train on areas A+B, adapt and score on area
C), closed-loop with one caller.  They differ in where the load sits:

* ``metatrain-p32-fo`` / ``metatrain-p1024-so``: set-up writes the density-70
  acceptance-fixture dataset with ``pointmeta synth`` and loads it through
  the library API; the timed window repeats a fixed-length
  ``trainer.pretrain`` pass, each followed by a short adapt-eval on AreaC.
* ``cli-synth-ingest-eval``: set-up runs ``pointmeta synth`` and ``ingest``
  at density 280 (rooms 4x larger); the timed window repeats a short
  ``pretrain`` and ``adapt-eval`` through ``pointmeta.cli.main``.

Each pass or flow restarts from the same seeds, so every repetition must
reproduce the first bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import operator
import re
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from pointmeta import cli, data, model, sampler, trainer
from pointmeta.errors import PointMetaError

import probes
from tracer import Tracer

ROOMS = {"office": 3, "hallway": 2, "conference_room": 2, "storage": 3, "pantry": 3, "lounge": 2}
AREAS = ("AreaA", "AreaB", "AreaC")
TRAIN_AREAS = ["AreaA", "AreaB"]
# every timed unit repeats in a run, and the bounded metrics are built from
# the fastest repetitions (see Result.end_to_end)
MIN_REPS = 2
# relative tolerance on the first half of the reference loss trajectory:
# perturbing every initial weight by 1e-7 relative (the size of float32
# reassociation) moves it by at most 3.2e-7, while scaling one layer's
# meta-gradient by 0.5-1.1 or zeroing the output-bias gradient moves it by
# 2.5e-5 to 5e-3 (README); later steps amplify rounding chaotically
LOSS_RTOL = 2e-5
MIOU_ATOL = 5e-3

METATRAIN = {
    # name: (points per block, gradient mode, steps per pass, eval episodes, set-ups)
    # short passes, so that each step and episode repeats many times in a run
    "metatrain-p32-fo": (32, "first_order", 20, 4, 3),
    "metatrain-p1024-so": (1024, "second_order", 2, 1, 3),
}
CLI_DENSITY = 280
CLI_STEPS = 24
CLI_EPISODES = 4
CLI_SETUPS = 2  # each is a ~11 s synth and ingest of ~1 M points


class Run:
    """Counts operations and failures, and records every output check."""

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        self.reference = reference  # None unless the seed is the reference seed
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.observed: dict = {}

    def ops(self, n: int, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": str(detail)})
        if not ok:
            self.failed += 1
        return ok

    def observe(self, name: str, value) -> None:
        """Record ``value``, next to the seed commit's when there is one; no check."""
        self.observed[name] = value
        if self.reference is not None:
            self.observed[f"{name}_at_seed_commit"] = self.reference[name]

    def against_reference(self, name: str, value, compare) -> None:
        self.observed[name] = value
        if self.reference is not None:
            expected = self.reference[name]
            self.check(f"reference {name}", compare(value, expected), f"got {value!r}, want {expected!r}")


def _close(rtol=0.0, atol=0.0):
    def compare(got, want):
        if isinstance(want, list):
            return len(got) == len(want) and all(map(compare, got, want))
        return abs(got - want) <= atol + rtol * abs(want)

    return compare


def run_cli(argv) -> tuple[int, str]:
    """``pointmeta <argv>`` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _area_totals(text: str) -> dict:
    """``{area: [points, blocks]}`` from synth/ingest output lines."""
    pattern = r"^(\w+): \d+ rooms, (\d+) points, (\d+) blocks"
    return {m[0]: [int(m[1]), int(m[2])] for m in re.findall(pattern, text, flags=re.M)}


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*.txt") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _write_spec(path: Path, density: int) -> None:
    spec = {"density": density, "areas": [{"name": name, "rooms": ROOMS} for name in AREAS]}
    path.write_text(json.dumps(spec, indent=2), encoding="utf-8")


def _step_intervals(clock: Tracer, since: int, start: float | None = None) -> list[float]:
    """Seconds per meta-step: between consecutive ``meta_step`` returns from
    span ``since`` on, the first measured from ``start`` when given."""
    ends = [s.end for s in clock.spans[since:] if s.name == "trainer.meta_step"]
    if start is not None:
        ends.insert(0, start)
    return [b - a for a, b in zip(ends, ends[1:])]


def _synth(run: Run, work: Path, density: int) -> tuple[float, dict]:
    """``pointmeta synth`` into a fresh directory; returns seconds and totals."""
    data_dir = work / "data"
    shutil.rmtree(data_dir, ignore_errors=True)
    start = time.perf_counter()
    code, out = run_cli(["synth", "--spec", work / "spec.json", "--seed", run.seed, "--out", data_dir])
    seconds = time.perf_counter() - start
    run.ops(1, failed=int(code != 0))
    if code != 0:
        raise PointMetaError(f"synth exited {code}: {out}")
    return seconds, _area_totals(out)


class Result:
    """Timings and checked outputs of one workload run."""

    def __init__(self, steps_per_rep: int, episodes: int):
        self.steps_per_rep = steps_per_rep
        self.episodes = episodes  # per adapt-eval
        self.setup_s: list[float] = []
        self.synth_pps: list[float] = []
        self.ingest_pps: list[float] = []
        self.steps: list[float] = []
        self.adapt_eval_s: list[float] = []
        self.spans = []  # the untraced clock's spans
        self.losses = None
        self.eval_miou = None
        self.overhead_ratio = None  # traced over untraced time, traced runs only

    def end_to_end(self, peak_rss_mb: float) -> dict:
        """The bounded metrics: ``(value, unit)`` by name.

        Every repetition replays the same episodes, so each unit of work (a
        meta-step, an adapt-eval episode) is timed several times, and the
        metrics add up each unit's fastest time.  Host contention only ever
        adds time and switches in well under a second, so the fastest
        repetitions are the figures that repeat from run to run.
        """
        steps = _best_of(self.steps, self.steps_per_rep)
        adapt = [s.duration for s in self.spans
                 if s.name == "trainer.inner_adapt" and s.parent is not None
                 and self.spans[s.parent].name == "trainer.adapt_and_eval"]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "meta_steps_per_s": (len(steps) / sum(steps), "1/s"),
            "adapt_ms_per_episode": (statistics.mean(_best_of(adapt, self.episodes)) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def summary(self, run: Run) -> dict:
        """Unbounded figures: whole-run rates and tails, quality, failures."""
        steps = sorted(self.steps)
        return {
            "meta_steps_per_s_all": (len(steps) / sum(steps), "1/s"),
            "step_ms_p50_all": (statistics.median(steps) * 1e3, "ms"),
            "step_ms_p90_all": (steps[int(0.9 * (len(steps) - 1))] * 1e3, "ms"),
            "steps_timed": (len(steps), "count"),
            "synth_points_per_s": (statistics.median(self.synth_pps), "points/s"),
            "ingest_points_per_s": (statistics.median(self.ingest_pps), "points/s"),
            "write_points_per_s": (_fast_rate(self.spans, "data.write_room"), "points/s"),
            "load_points_per_s": (_fast_rate(self.spans, "data.load_room"), "points/s"),
            "adapt_eval_s": (statistics.median(self.adapt_eval_s), "s"),
            "final_query_loss": (float(np.mean(self.losses[len(self.losses) // 2:])), "nat"),
            "eval_miou": (self.eval_miou, "ratio"),
            "failed_share": (run.failed / max(run.attempted, 1), "ratio"),
        }


def _best_of(samples: list[float], period: int) -> list[float]:
    """Fastest of each unit, where unit k recurs at every ``period``-th sample."""
    if not samples or len(samples) % period:
        raise ValueError(f"{len(samples)} samples do not divide into repetitions of {period}")
    return [min(samples[k::period]) for k in range(period)]


def _fast_rate(spans, name: str) -> float:
    """Points per second that the fastest tenth of the ``name`` calls reach
    (the 90th percentile of per-file throughput)."""
    return statistics.quantiles([s.info["points"] / s.duration for s in spans if s.name == name], n=10)[-1]


def drive(run: Run, result: Result, seconds: float, trace: bool, setups: int, setup, warm_up, body):
    """Run a workload's set-ups, warm-up and repeated body.

    ``body(ctx, clock)`` returns an outcome (losses, mIoU) that every
    repetition must reproduce, and must read and write the same bytes.
    Untraced, set-up runs ``setups`` times: once before the warm-up, the
    others spread between repetitions, so that one busy spell of the host
    cannot slow every set-up.  The body repeats at least ``MIN_REPS`` times
    and until the next repetition would overrun ``seconds`` of body time.
    Traced, set-up and body run once untraced and once under the tracer; the
    outcomes and byte counts must match, and the tracing overhead compares
    the time of the ``probes.OVERHEAD_UNITS`` in the two bodies.  Returns
    the outcome and the tracer (None when untraced).
    """
    clock = Tracer()
    probes.install_clock(clock)
    tracer = None
    try:
        if not trace:
            ctx = setup()
            warm_up(ctx)
            outcomes, moved, timed, done = [], [], 0.0, 1
            while True:
                began, mark = time.perf_counter(), len(clock.spans)
                outcomes.append(body(ctx, clock))
                moved.append(probes.byte_counts(clock.spans[mark:]))
                took = time.perf_counter() - began
                timed += took
                if done < setups and timed >= seconds * done / setups:
                    setup()
                    done += 1
                if len(outcomes) >= MIN_REPS and timed + took > seconds:
                    break
            for _ in range(done, setups):
                setup()
            run.check("every repetition reproduces the first bit for bit",
                      all(o == outcomes[0] for o in outcomes), f"{len(outcomes)} repetitions")
            run.check("every repetition reads, writes and hashes the same bytes",
                      all(m == moved[0] for m in moved), moved[0])
            result.spans = clock.spans
            return outcomes[0], None
        outcomes, moved, units = {}, {}, {}
        for mode in ("untraced", "traced"):
            if mode == "traced":
                clock.restore()
                tracer = clock = Tracer()
                probes.install(tracer)
            ctx = setup()
            setup_spans = clock.spans[:]
            if mode == "untraced":
                warm_up(ctx)
            mark = len(clock.spans)
            outcomes[mode] = body(ctx, clock)
            moved[mode] = probes.byte_counts(setup_spans + clock.spans[mark:])
            units[mode] = probes.unit_seconds(clock.spans[mark:])
            if mode == "untraced":
                result.spans = clock.spans
            clock.restore()
        run.check("traced run reproduces the untraced run bit for bit", outcomes["traced"] == outcomes["untraced"])
        run.check("traced run reads, writes and hashes the bytes the untraced run did",
                  moved["traced"] == moved["untraced"], moved)
        result.overhead_ratio = units["traced"] / units["untraced"]
        return outcomes["traced"], tracer
    finally:
        clock.restore()


def _collect_garbage() -> None:
    # every step's autodiff graph is cyclic garbage (a recorded tensor refers
    # to its tape, which lists it) that only the cyclic collector frees, about
    # 0.5 GB per second-order step at P=1024; collect before each timed part
    # so that garbage from earlier parts neither piles up in peak memory nor
    # gets collected inside the next timing
    gc.collect()


def _finish(run: Run, result: Result, digests: list, totals: dict, outcome) -> None:
    run.check("synth output identical across set-ups", len(set(digests)) == 1, digests)
    run.against_reference("synth_sha256", digests[0], operator.eq)
    run.against_reference("synth_totals", totals, operator.eq)
    result.losses, result.eval_miou = outcome
    losses = result.losses
    run.check("losses are finite", all(np.isfinite(losses)), losses[-3:])
    run.against_reference("losses_head", losses[: len(losses) // 2 + 1], _close(rtol=LOSS_RTOL))
    run.against_reference("eval_miou", result.eval_miou, _close(atol=MIOU_ATOL))


# ---------------------------------------------------------------------------
# meta-training workloads


def metatrain(name: str, run: Run, work: Path, seconds: float, trace: bool) -> tuple[Result, Tracer | None]:
    points, mode, steps_per_pass, episodes, setups = METATRAIN[name]
    seed = run.seed
    _write_spec(work / "spec.json", density=70)
    spec = sampler.EpisodeSpec(ways=2, shots=6, query_multiplier=1)
    meta = trainer.MetaConfig(
        alpha=1e-3, beta=1e-3, inner_steps=1, tasks_per_batch=1, gradient_mode=mode,
        epochs=1, steps_per_epoch=steps_per_pass,
    )
    result = Result(steps_per_rep=steps_per_pass, episodes=episodes)
    digests, totals = [], {}

    def setup():
        _collect_garbage()
        synth_s, synth_totals = _synth(run, work, density=70)
        start = time.perf_counter()
        areas, vocab = data.load_dataset(work / "data")
        index = sampler.index_categories([a for a in areas if a.name in TRAIN_AREAS], points_per_block=points)
        ingest_s = time.perf_counter() - start
        n_points = sum(p for p, _ in synth_totals.values())
        result.setup_s.append(synth_s + ingest_s)
        result.synth_pps.append(n_points / synth_s)
        result.ingest_pps.append(n_points / ingest_s)
        digests.append(_tree_digest(work / "data"))
        totals.update(synth_totals)
        dist = sampler.build_task_distribution(index, spec, count=steps_per_pass, seed=seed)
        config = model.PointNetConfig(num_classes=len(vocab), points_per_block=points)
        return dist, config, next(a for a in areas if a.name == "AreaC")

    def warm_up(ctx):
        # one whole pass, so lazy BLAS set-up and the growth of the heap to a
        # pass's peak are paid before any timing, traced or not
        dist, config, _ = ctx
        _collect_garbage()
        trainer.pretrain(dist, meta, config, init_seed=seed)

    def body(ctx, clock):
        dist, config, target = ctx
        ckpt = work / "ckpt"
        ckpt.mkdir(exist_ok=True)
        started = []

        def hook(epoch, state):
            model.save_checkpoint(ckpt / f"epoch{epoch}", config, state.theta)
            if epoch == 0:
                started.append(time.perf_counter())

        _collect_garbage()
        mark = len(clock.spans)
        try:
            state = trainer.pretrain(dist, meta, config, init_seed=seed, checkpoint_hook=hook)
        except PointMetaError:
            run.ops(steps_per_pass, failed=steps_per_pass)
            raise
        result.steps += _step_intervals(clock, mark, started[0])
        run.ops(len(state.history))

        _collect_garbage()
        _, theta = model.load_checkpoint(ckpt / "epoch1")
        run.check("checkpoint round trip is bit-exact",
                  all(np.array_equal(theta[n], state.theta[n]) for n in theta))
        start = time.perf_counter()
        report = trainer.adapt_and_eval(
            theta, config, [target], spec, episodes=episodes, rng=np.random.default_rng([seed, 1]),
            beta=1e-3, inner_steps=5,
        )
        result.adapt_eval_s.append(time.perf_counter() - start)
        run.ops(episodes)
        return state.losses, report.overall.miou

    outcome, tracer = drive(run, result, seconds, trace, setups, setup, warm_up, body)
    _finish(run, result, digests, totals, outcome)
    return result, tracer


# ---------------------------------------------------------------------------
# CLI workload


def cli_flow(run: Run, work: Path, seconds: float, trace: bool) -> tuple[Result, Tracer | None]:
    seed = run.seed
    _write_spec(work / "spec.json", density=CLI_DENSITY)
    data_dir, runs_dir, eval_dir = work / "data", work / "runs", work / "eval"
    config = {
        "data": {"root": str(data_dir), "areas": TRAIN_AREAS, "points_per_block": 32},
        "episode": {"ways": 2, "shots": 6, "queries": 1},
        "meta": {"alpha": 1e-3, "beta": 1e-3, "inner_steps": 1, "epochs": 1, "steps_per_epoch": CLI_STEPS},
        "seeds": {"init": seed, "tasks": seed},
    }
    (work / "run.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    # step intervals run between meta_step returns, so a flow times one fewer
    result = Result(steps_per_rep=CLI_STEPS - 1, episodes=CLI_EPISODES)
    digests, totals = [], {}

    def command(argv) -> tuple[float, str]:
        _collect_garbage()
        start = time.perf_counter()
        code, out = run_cli(argv)
        taken = time.perf_counter() - start
        run.ops(1, failed=int(code != 0))
        if code != 0:
            raise PointMetaError(f"{argv[0]} exited {code}: {out}")
        return taken, out

    def setup():
        _collect_garbage()
        synth_s, synth_totals = _synth(run, work, density=CLI_DENSITY)
        digests.append(_tree_digest(data_dir))
        totals.update(synth_totals)
        ingest_s, out = command(["ingest", "--data", data_dir])
        ingested = _area_totals(out)
        run.check("ingest totals equal the synth totals", ingested == synth_totals, ingested)
        n_points = sum(p for p, _ in synth_totals.values())
        result.setup_s.append(synth_s + ingest_s)
        result.synth_pps.append(n_points / synth_s)
        result.ingest_pps.append(n_points / ingest_s)

    def body(_, clock):
        for path in (runs_dir, eval_dir):
            shutil.rmtree(path, ignore_errors=True)
        mark = len(clock.spans)
        command(["pretrain", "--config", work / "run.json", "--out", runs_dir])
        result.steps += _step_intervals(clock, mark)
        with open(runs_dir / "loss.csv", encoding="utf-8") as fh:
            losses = [float(row["query_loss"]) for row in csv.DictReader(fh)]
        run.ops(len(losses))

        eval_s, _ = command([
            "adapt-eval", "--checkpoint", runs_dir / "ckpt_epoch1", "--data", data_dir, "--areas", "AreaC",
            "--ways", 2, "--shots", 6, "--episodes", CLI_EPISODES, "--beta", 1e-3, "--inner-steps", 5,
            "--seed", seed, "--out", eval_dir,
        ])
        result.adapt_eval_s.append(eval_s)
        run.ops(CLI_EPISODES)
        with open(eval_dir / "metrics.csv", encoding="utf-8") as fh:
            overall = [row for row in csv.DictReader(fh) if row["class"] == "overall"]
        return losses, float(overall[0]["miou"])

    # no warm-up: the first set-up's ingest has grown the heap to a load's peak
    outcome, tracer = drive(run, result, seconds, trace, CLI_SETUPS, setup, lambda _: None, body)
    _finish(run, result, digests, totals, outcome)
    return result, tracer


def gradcheck(run: Run) -> None:
    """``pointmeta gradcheck --bits 64``, untimed; a failure counts as one."""
    code, out = run_cli(["gradcheck", "--bits", 64])
    run.ops(1)
    run.check("gradcheck --bits 64 passes", code == 0, out.strip())
