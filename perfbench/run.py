"""Benchmark of dyndeg: one workload, one seed, one JSON result line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times whole rounds of ops, untraced, and stops at
the round boundary nearest to ``--seconds`` of normalized op time (after one
round at least); it reports the end-to-end metrics of BENCHMARK.json.  Times are
normalized to the host's speed with the reference kernel of ``pace.py``,
sampled on a timer while the ops run; the raw wall-time figures are in the
run record.  With
``--trace 1`` it replays a fixed number of ops under the tracer and reports
the per-layer metrics, with the tracing overhead measured against untraced
replays of the same ops, each in a fresh interpreter, before and after the
traced one.  Every op is checked against an independent reference outside
its timed part.

The last line of stdout is the result.  The line before it is the run
record (commit, Python version, nproc, seed, op counts, error rate and a
digest of all CLI stdout), which is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import pace

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
STOP_AFTER_S = 140  # start no op after this, so that a run exits within 180 s
SETUP_RUNS = 7
PROBE_PACE_S = 0.02  # pace timer period while a set-up probe sets up
# a traced run replays this many ops from the start of the seed's schedule, so its counts repeat for a seed
TRACE_OPS = {"lambda-deep": 5, "oracle-iterates": 3, "survey": 180}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)
    workloads, rounds = _set_up(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import checks

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pace_nominal_s": pace.NOMINAL_S,
    }
    if args.trace:
        replay = [op for ops in rounds for op in ops][: TRACE_OPS[args.workload]]
        started = time.perf_counter()
        untraced = [_untraced_replay(args, len(replay))]
        replay_s = time.perf_counter() - started
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            stats = _run_ops(workloads, checks.Checker(), [replay], None, tracer)
        finally:
            tracer.uninstall()
        # a second untraced replay after the traced one cancels a steady drift
        # of machine speed; skip it when it would end too close to the limit
        if time.perf_counter() - START + replay_s < STOP_AFTER_S:
            untraced.append(_untraced_replay(args, len(replay)))
        values = tracer.metrics()
        traced_rate = stats["ok"] / stats["norm_s"]
        untraced_rates = [u["metrics"]["ops_per_s"]["value"] for u in untraced]
        untraced_rate = statistics.mean(untraced_rates)
        values["trace.overhead"] = untraced_rate / traced_rate - 1 if traced_rate else 0.0
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        layers = tracer.layer_self_s()
        record.update(
            untraced_ops_per_s=untraced_rates,
            traced_ops_per_s=traced_rate,
            layer_self_s=layers,
            # self times include the pace kernel samples taken inside spans, so
            # shares are of op wall time with those samples
            layer_share={k: v / stats["wall_s"] for k, v in layers.items()},
            spans=os.path.relpath(spans_path, ROOT),
        )
        correct = all(u["correct"] for u in untraced)
        wanted = spec["per_layer"]
    else:
        setup, setup_raw = _setup_probes(args, 0 if args.ops else SETUP_RUNS)
        if args.ops:
            schedule, seconds = [[op for ops in rounds for op in ops][: args.ops]], None
        else:
            schedule, seconds = rounds, args.seconds
        stats = _run_ops(workloads, checks.Checker(), schedule, seconds)
        values = _latency_metrics(stats["ok"], stats["norm_s"], stats["norm_latencies"])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if setup:
            values["setup_s"] = statistics.median(setup)
        record.update(
            setup_runs_s=setup,
            raw_setup_runs_s=setup_raw,
            raw_metrics=_latency_metrics(stats["ok"], stats["timed_s"], stats["latencies"]),
        )
        correct = True
        wanted = [m for m in spec["end_to_end"] if m["name"] in values]
    correct = correct and stats["failed"] == 0
    record.update(
        rounds=stats["rounds"],
        ops=stats["kinds"],
        attempted=stats["attempted"],
        failed=stats["failed"],
        error_rate=stats["failed"] / max(stats["attempted"], 1),
        latency_samples=stats["ok"],
        timed_s=stats["timed_s"],
        normalized_s=stats["norm_s"],
        pace_samples=stats["pace_samples"],
        pace_median_s=stats["pace_median_s"],
        output_digest=stats["digest"],
        metrics=values,
        op_log=stats["log"],
    )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if not args.ops:
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": stats["attempted"], "failed": stats["failed"], "metrics": metrics}))
    return 0


def _latency_metrics(ok, seconds, latencies) -> dict:
    lat = sorted(latencies) or [0.0]
    return {
        "ops_per_s": ok / seconds if seconds else 0.0,
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0],
    }


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="lambda-deep, oracle-iterates or survey")
    p.add_argument("--seed", type=int, default=1, help="seed of the workload's inputs")
    p.add_argument("--seconds", type=float, default=20, help="normalized op time to measure, in whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None, help=argparse.SUPPRESS)  # fixed untraced replay
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)  # set up, then exit
    return p.parse_args(argv)


def _load_program():
    """Put the checkout's src/ first on the path and import dyndeg from it."""
    if not os.path.isfile(os.path.join(SRC, "dyndeg", "__init__.py")):
        sys.exit(f"perfbench: no dyndeg sources under {SRC}; run from the root of a dyndeg checkout")
    sys.path.insert(0, SRC)
    import dyndeg

    if not os.path.abspath(dyndeg.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported dyndeg from {dyndeg.__file__}, not from {SRC}")


def _set_up(args):
    """Import dyndeg from the checkout and build the seeded rounds."""
    _load_program()
    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    return workloads, workloads.build(args.workload, args.seed)


def _setup_probe(args) -> int:
    """Set up while the pace kernel samples; print its time spent and the scale of the set-up span."""
    with pace.Pacer(every=PROBE_PACE_S) as pacer:
        _set_up(args)
        end = time.perf_counter()
    print(json.dumps({"spent": pacer.spent, "scale": pacer.scale(START, end)}))
    return 0


def _setup_probes(args, runs):
    """Normalized and wall seconds from interpreter start to ready inputs, each in a fresh interpreter.

    A probe's wall time less the pace kernel's time in it is scaled by the
    kernel samples the probe took while it set up.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    normalized, wall = [], []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(cmd, check=True, timeout=60, capture_output=True, text=True, cwd=ROOT)
        probe = json.loads(done.stdout.splitlines()[-1])
        wall.append(time.perf_counter() - start - probe["spent"])
        normalized.append(wall[-1] * probe["scale"])
    return normalized, wall


def _untraced_replay(args, n_ops) -> dict:
    """Result line of the same ops, untraced, in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", "0", "--ops", str(n_ops)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=STOP_AFTER_S, cwd=ROOT)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: untraced replay exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _run_ops(workloads, checker, rounds, seconds, tracer=None) -> dict:
    """Run and check ops round by round, with the pace kernel sampling on a timer.

    With `seconds`, stop at the round boundary nearest to `seconds` of
    normalized op time, after one round at least, so that the rounds run
    do not depend on the host's speed; without, run every round given.  An
    op's time excludes the kernel samples taken during it.
    """
    timed_ops, kinds, digest = [], collections.Counter(), hashlib.sha256()
    attempted = failed = done_rounds = 0
    timed = paced = wall = 0.0
    with pace.Pacer() as pacer:
        for ops in rounds:
            for op in ops:
                if time.perf_counter() - START > STOP_AFTER_S:
                    break
                if tracer is not None:
                    tracer.op_id = attempted
                spent = pacer.spent
                t0 = time.perf_counter()
                try:
                    out, error = workloads.run(op), None
                except Exception as exc:  # a failed op is counted and the run goes on
                    out, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                elapsed = t1 - t0 - (pacer.spent - spent)
                attempted += 1
                timed += elapsed
                wall += t1 - t0
                paced += elapsed * pacer.scale(t0, t1)  # estimate from the samples so far
                kinds[op.kind] += 1
                if out is not None and "stdout" in out:
                    digest.update(out["stdout"].encode())
                error = error or checker.check(op, out)
                if error:
                    failed += 1
                    print(f"perfbench: {op.kind} zeta={workloads.zeta_text(op.zeta)} failed: {error}", file=sys.stderr)
                timed_ops.append((op, t0, t1, elapsed, not error))
            else:
                done_rounds += 1
                if seconds is None or paced + paced / done_rounds / 2 < seconds:
                    continue
            break
    log, latencies, norm_latencies, norm = [], [], [], 0.0
    for op, t0, t1, elapsed, ok in timed_ops:
        scaled = elapsed * pacer.scale(t0, t1)
        norm += scaled
        if ok:
            latencies.append(elapsed)
            norm_latencies.append(scaled)
        log.append([op.kind, workloads.zeta_text(op.zeta), elapsed, scaled, ok])
    return {
        "latencies": latencies,
        "norm_latencies": norm_latencies,
        "ok": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "timed_s": timed,
        "wall_s": wall,
        "norm_s": norm,
        "pace_samples": len(pacer.samples),
        "pace_median_s": statistics.median(pacer.samples),
        "rounds": done_rounds,
        "kinds": dict(kinds),
        "digest": digest.hexdigest(),
        "log": log,
    }


def _commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
