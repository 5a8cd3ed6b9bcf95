"""One workload process, started by run.py with one thread and a fixed hash seed.

    child.py WORKLOAD SEED WORK_DIR

Set-up (imports, input generation and validation) ends with a `ready` line
on the protocol channel.  The parent then sends one line per round,
`round 0` (untimed spans) or `round 1` (traced), and closes standard input
when it wants no more; a set-up-only launch gets no round at all.  Rounds
are forked one at a time from the set-up state, so every round starts as
cold as a fresh CLI process; each round times every operation of the
workload on its own (wall and process CPU time, with the reference loop
of pace.py timed just before it) and sends its figures back.  The first
round also checks every output (untimed).

The protocol channel is the original standard output; everything the
program prints goes to standard error instead.
"""

import json
import os
import resource
import shutil
import sys
import time
import traceback

import pace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _send(chan, obj):
    chan.write(json.dumps(obj) + "\n")
    chan.flush()


def _round(workload, traced, first, work_dir):
    """Runs in the forked process: time every operation once."""
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer().install()
    ops = workload.operations(work_dir)
    outputs, times = {}, {}
    for name, thunk in ops:
        ref = pace.reference_seconds()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs[name] = ("ok", thunk())
        except Exception:  # an operation that raises counts as failed
            outputs[name] = ("raised", traceback.format_exc(limit=4))
        times[name] = (time.perf_counter() - t0, time.process_time() - c0, ref)
    result = {
        "wall_s": sum(w for w, _, _ in times.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": {},
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    for name, (status, out) in outputs.items():
        wall, cpu, ref = times[name]
        op = {"status": status, "wall_s": wall, "cpu_s": cpu, "ref_s": ref}
        if status == "ok":
            op["summary"] = workload.summary(name, out)
            if first:
                try:
                    op["bad"] = workload.check(name, out)
                except Exception:
                    op["bad"] = ["check raised: " + traceback.format_exc(limit=4)]
        else:
            op["error"] = out
        result["ops"][name] = op
    return result


def _fork_round(workload, traced, first, work_dir):
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        round_dir = os.path.join(work_dir, f"round-{os.getpid()}")
        try:
            payload = _round(workload, traced, first, round_dir)
        except BaseException:
            payload = {"error": traceback.format_exc()}
            code = 1
        shutil.rmtree(round_dir, ignore_errors=True)
        try:
            with os.fdopen(wfd, "w") as fh:
                json.dump(payload, fh)
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    payload = json.loads(text)
    if "error" in payload:
        raise RuntimeError("round failed:\n" + payload["error"])
    return payload


def main(argv):
    name, seed, work_dir = argv
    chan = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import covertower

    where = os.path.dirname(os.path.abspath(covertower.__file__))
    if where != os.path.join(ROOT, "src", "covertower"):
        raise RuntimeError(f"covertower imported from {where}, not from this checkout")
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(int(seed))
    _send(chan, {"ready": True})
    first = True
    for line in sys.stdin:
        command, traced = line.split()
        if command != "round":
            break
        r = _fork_round(workload, traced == "1", first, work_dir)
        r["traced"] = traced == "1"
        first = False
        _send(chan, r)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
