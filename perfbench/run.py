"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: twist-survey, cover-homology, pq-series (see README.md).  The
workload runs in a child process (child.py) with BLAS/OpenMP pools pinned
to one thread and PYTHONHASHSEED fixed.  After one untimed warm-up launch,
one child measures whole rounds until they add up to S seconds of timed
work, and between its rounds further children are launched for set-up
only, so that the SETUPS set-up times are spread over the run; set-up time
is their median, from launch to ready.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones: wall and CPU time are the sum over the workload's
operations of each operation's median time over the rounds, and set-up
time is a median too, all scaled to a fixed machine speed by the
reference loop of pace.py; peak RSS is a median over rounds.  With
--trace 1 they are the per-layer ones from the traced rounds, plus the
tracing overhead measured against the untraced rounds of the same run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import pace
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("twist-survey", "cover-homology", "pq-series")
SETUPS = 9
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
TIME_LIMIT = 170.0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PINNED = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def per_layer_units():
    units = spans.metric_units()
    units["trace.overhead_pct"] = "%"
    return units


def _child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    env["PYTHONHASHSEED"] = "0"
    # set-up reads byte code cached by the warm-up launch, as an installed
    # program would, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Children:
    """Launches workload processes and makes sure none outlives the run."""

    def __init__(self, args, work_dir):
        self.cmd = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            args.workload,
            str(args.seed),
            work_dir,
        ]
        self.live = []
        self.env = _child_env()

    def launch(self):
        """Start one child and wait for its ready line; returns the process
        and its set-up time, scaled like the operations' times (pace.py)."""
        ref = pace.reference_seconds()
        t0 = time.perf_counter()
        # a session of its own, so that stop_all also reaches forked rounds
        proc = subprocess.Popen(
            self.cmd, cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.live.append(proc)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if not line or not json.loads(line).get("ready"):
            proc.wait()
            raise RuntimeError(
                f"workload process ended during set-up (exit code {proc.returncode})"
            )
        return proc, elapsed * pace.REFERENCE_S / ref

    def round(self, proc, traced):
        proc.stdin.write(f"round {int(traced)}\n")
        proc.stdin.flush()
        reply = proc.stdout.readline()
        if not reply:
            self.finish(proc)
            raise RuntimeError("workload process ended during a round")
        return json.loads(reply)

    def finish(self, proc):
        proc.stdin.close()
        code = proc.wait()
        if code:
            raise RuntimeError(f"workload process exited with code {code}")

    def stop_all(self):
        for proc in self.live:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def measure(args, work_dir):
    children = Children(args, work_dir)
    watchdog = threading.Timer(TIME_LIMIT, children.stop_all)
    watchdog.daemon = True
    watchdog.start()
    want = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    setups, rounds, timed = [], [], 0.0
    try:
        proc, _ = children.launch()  # warm-up: byte code and file caches
        children.finish(proc)
        runner, elapsed = children.launch()
        setups.append(elapsed)
        while len(rounds) < want or timed < args.seconds or len(setups) < SETUPS:
            # set-up launches keep pace with the timed work
            if len(setups) < SETUPS and timed >= args.seconds * len(setups) / SETUPS:
                proc, elapsed = children.launch()
                children.finish(proc)
                setups.append(elapsed)
                continue
            r = children.round(runner, args.trace and len(rounds) % 2 == 1)
            rounds.append(r)
            timed += r["wall_s"]
        children.finish(runner)
    finally:
        watchdog.cancel()
        children.stop_all()
    return setups, rounds


def score(rounds):
    """attempted, failed, correct and the problems found.

    Outputs are checked in the first round and must repeat in later ones,
    so an operation that raised, or whose first-round output went
    unchecked, makes the run incorrect."""
    reference = rounds[0]["ops"]
    attempted = failed = 0
    problems = []
    correct = True
    for i, rnd in enumerate(rounds):
        for name, op in rnd["ops"].items():
            attempted += 1
            ref = reference[name]
            if op["status"] != "ok":
                failed += 1
                correct = False
                problems.append(f"round {i} {name}: raised\n{op['error']}")
                continue
            if ref["status"] != "ok":
                bad = ["first-round output raised, so this output is unchecked"]
            else:
                bad = list(ref["bad"])
                if op["summary"] != ref["summary"]:
                    bad.append("output differs from the first round")
            if bad:
                failed += 1
                correct = False
                problems += [f"round {i} {name}: {why}" for why in bad]
    return attempted, failed, correct, problems


def scaled(rounds, key):
    """Sum over operations of the median over rounds of each operation's
    time, scaled to the reference loop's nominal speed (pace.py) by the
    loop timed just before the operation."""
    return sum(
        statistics.median(pace.REFERENCE_S * r["ops"][name][key] / r["ops"][name]["ref_s"] for r in rounds)
        for name in rounds[0]["ops"]
    )


def end_to_end(setups, rounds):
    timed = [r for r in rounds if not r["traced"]]
    values = {
        "wall_s": scaled(timed, "wall_s"),
        "cpu_s": scaled(timed, "cpu_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "setup_s": statistics.median(setups),
    }
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}


def per_layer(rounds):
    traced = [r for r in rounds if r["traced"]]
    units = per_layer_units()
    values, notes, repeats = {}, [], True
    for m in units:
        if m == "trace.overhead_pct":
            continue
        seen = [r["layers"][m] for r in traced]
        if units[m] == "s":
            values[m] = statistics.median(seen)
        else:
            if len(set(seen)) > 1:
                repeats = False
                notes.append(f"count {m} differs between traced rounds: {seen}")
            values[m] = seen[0]
    # each traced round against the untraced round just before it, which
    # ran in the same phase of the machine's speed
    pairs = zip(rounds[0::2], rounds[1::2])
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(t["wall_s"] / u["wall_s"] for u, t in pairs) - 1.0
    )
    absent = sorted({a for r in traced for a in r["absent"]})
    if absent:
        notes.append("absent spans (reported as 0): " + ", ".join(absent))
    return {m: {"value": values[m], "unit": u} for m, u in units.items()}, notes, repeats


def main(argv=None):
    ap = argparse.ArgumentParser(description="covertower benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "covertower", "__init__.py")):
        print(f"error: no covertower sources under {ROOT}/src", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        setups, rounds = measure(args, work_dir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed, correct, problems = score(rounds)
    if args.trace:
        metrics, notes, repeats = per_layer(rounds)
        correct = correct and repeats
    else:
        metrics, notes = end_to_end(setups, rounds), []
    for line in problems + notes:
        print(line)
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed}")
    walls = (f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in rounds)
    print("  round wall_s (t = traced): " + " ".join(walls))
    print("  set-up s: " + " ".join(f"{s:.3f}" for s in setups))
    for m, v in metrics.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
