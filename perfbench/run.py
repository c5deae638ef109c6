"""parorb benchmark: three workloads, measured from outside the program.

    python3 perfbench/run.py --workload cli-report --seed 1 --seconds 40 --trace 0

Without --workload it runs the three workloads in turn.

Run from the root of a checkout.  Each workload is one caller in a closed
loop: the next job starts only when the previous one has ended, and at most
one parorb process runs at a time.  Inputs come from --seed (inputs.py);
every output is checked (checks.py) before its timing counts.

--trace 0 measures the end-to-end metrics: wall_s, cpu_s and peak_rss_mb
are medians over the passes that fit in --seconds, setup_s the median over
several fresh interpreters.  --trace 1 alternates untraced and traced passes
and reports the per-layer metrics (tracing.py) and the tracing overhead;
the traced outputs must hash to the untraced ones.  The last line of stdout
is the JSON result; a failed check makes the run exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES_PER_PASS = 2
JOB_TIMEOUT_S = 120
# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"  # same set iteration order in every job
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str]) -> dict:
    """Run one child to completion; wall time, rusage and its output."""
    out_path, err_path = os.path.join(WORK, "stdout"), os.path.join(WORK, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted, or SIGTERM (see main): end the child
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "code": proc.returncode,
        "stdout": stdout,
        "stderr": stderr.decode(errors="replace")[-300:],
    }


def load_betti(in_dir: str) -> dict:
    with open(os.path.join(in_dir, "betti.json"), encoding="utf-8") as handle:
        return {(t["genus"], t["rank"], t["points"]): t["coefficients"] for t in json.load(handle)}


def cli_pass(workload: str, in_dir: str, span_dir: str | None) -> dict:
    """One pass of a CLI workload: every job once, each in a fresh process."""
    betti = load_betti(in_dir)
    digest = hashlib.sha256()
    result = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "attempted": 0,
              "failed": 0, "problems": [], "output_bytes": 0, "span_files": []}
    for k, (shape, args) in enumerate(inputs.cli_jobs(workload, in_dir)):
        if span_dir is None:
            argv = [sys.executable, "-m", "parorb"] + args
        else:
            span_file = os.path.join(span_dir, "job%d.spans" % k)
            result["span_files"].append(span_file)
            argv = [sys.executable, CHILD, "cli", span_file, "job%d" % k, "--"] + args
        job = spawn(argv)
        result["wall_s"] += job["wall_s"]
        result["cpu_s"] += job["cpu_s"]
        result["peak_rss_mb"] = max(result["peak_rss_mb"], job["rss_mb"])
        result["output_bytes"] += len(job["stdout"])
        digest.update(job["stdout"])
        if workload == "cli-report":
            problems = checks.check_report(shape, betti, job["code"], job["stdout"])
        else:
            problems = checks.check_oracle(shape, job["code"], job["stdout"])
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            distinct = "; ".join(dict.fromkeys(problems))
            result["problems"].append("%s: %s %s" % (shape, distinct, job["stderr"]))
    result["digest"] = digest.hexdigest()
    return result


def sweep_pass(in_dir: str, span_dir: str | None, verify: bool) -> dict:
    """One library-sweep pass in a fresh process; times cover its timed loop."""
    argv = [sys.executable, CHILD, "sweep", in_dir, "verify" if verify else "hash"]
    span_files = []
    if span_dir is not None:
        span_files = [os.path.join(span_dir, "sweep.spans")]
        argv += span_files
    job = spawn(argv)
    try:
        summary = json.loads(job["stdout"].splitlines()[-1])
    except (IndexError, ValueError):
        return {"wall_s": job["wall_s"], "cpu_s": job["cpu_s"], "peak_rss_mb": job["rss_mb"],
                "attempted": 1, "failed": 1, "digest": "",
                "problems": ["sweep exited %d: %s" % (job["code"], job["stderr"])],
                "output_bytes": 0, "span_files": span_files}
    summary.update(peak_rss_mb=job["rss_mb"], output_bytes=0, span_files=span_files)
    return summary


def run_pass(workload: str, in_dir: str, span_dir: str | None = None,
             verify: bool = True) -> dict:
    """One pass.  CLI outputs are checked in every pass.  Library-sweep
    results are checked only when `verify` is set, which costs a third of a
    pass; report() requires every pass of a run to hash the same, so each
    pass is held to the verified one."""
    if span_dir is not None:
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
    if workload == "library-sweep":
        return sweep_pass(in_dir, span_dir, verify)
    return cli_pass(workload, in_dir, span_dir)


def setup_time(workload: str, in_dir: str) -> float:
    """setup_s of one fresh interpreter."""
    job = spawn([sys.executable, CHILD, "setup", workload, in_dir])
    if job["code"] != 0:
        raise RuntimeError("setup probe failed: %s" % job["stderr"])
    return json.loads(job["stdout"])["setup_s"]


def timed_passes(seconds: float, make_pass) -> list:
    """Repeat make_pass(index) while the next one is expected to end in
    budget."""
    started = time.perf_counter()
    passes = []
    while True:
        passes.append(make_pass(len(passes)))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def measure(workload: str, in_dir: str, seconds: float) -> dict:
    setup_time(workload, in_dir)  # fills the bytecode cache; not counted
    samples = {"setup_s": []}

    def one_pass(k):
        result = run_pass(workload, in_dir, verify=k == 0)
        # probes after every pass sample the host's speed over the whole run
        for _ in range(SETUP_PROBES_PER_PASS):
            samples["setup_s"].append(setup_time(workload, in_dir))
        return result

    passes = timed_passes(seconds, one_pass)
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[name] = [p[name] for p in passes]
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END
    }
    return {"metrics": metrics, "passes": passes,
            "detail": {"passes": len(passes), "samples": samples}}


def measure_traced(workload: str, in_dir: str, seconds: float) -> dict:
    plain, traced = [], []
    span_dir = os.path.join(WORK, "spans")

    def pair(k):
        plain.append(run_pass(workload, in_dir, verify=k == 0))
        traced.append(run_pass(workload, in_dir, span_dir, verify=False))
        traced[-1]["totals"] = tracing.pass_totals(traced[-1]["span_files"])

    timed_passes(seconds, pair)
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain))
    metrics = tracing.layer_metrics(
        [p["totals"] for p in traced], traced[0]["output_bytes"], overhead)
    detail = {
        "passes": len(traced),
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [p["wall_s"] for p in traced],
    }
    return {"metrics": metrics, "passes": plain + traced, "detail": detail}


def report(args, workload: str, measured: dict) -> int:
    passes = measured["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = sorted({p["digest"] for p in passes})
    problems = [msg for p in passes for msg in p["problems"]]
    if len(digests) > 1:
        problems.append("passes on one seed produced different outputs: %s" % digests)
    correct = failed == 0 and len(digests) == 1
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **env, "digest": digests[0] if len(digests) == 1 else digests,
        "attempted": attempted, "failed": failed, "correct": correct,
        "metrics": measured["metrics"], "detail": measured["detail"], "problems": problems[:20],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record_path = os.path.join(
        WORK, "results", "%s-seed%d-trace%d.json" % (workload, args.seed, args.trace))
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print("workload=%s seed=%d trace=%d python=%s nproc=%d passes=%d sha256=%s"
          % (workload, args.seed, args.trace, env["python"], env["nproc"],
             measured["detail"]["passes"], record["digest"]))
    for name, metric in measured["metrics"].items():
        print("  %s = %.6g %s" % (name, metric["value"], metric["unit"]))
    print("  failed_ratio = %.6g (%d failed / %d attempted operations)"
          % (failed / attempted, failed, attempted))
    for msg in problems[:10]:
        print("  FAILED: %s" % msg)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": measured["metrics"] if correct else {},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a SIGTERM unwinds through spawn(), which ends the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(ROOT, "src", "parorb", "cli.py")):
        print("error: no parorb sources under %s/src; run from a checkout"
              % os.path.basename(ROOT), file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    status = 0
    for workload in [args.workload] if args.workload else inputs.WORKLOADS:
        in_dir = os.path.join(WORK, "inputs", "%s-%d" % (workload, args.seed))
        inputs.generate(workload, args.seed, in_dir)
        if args.trace:
            measured = measure_traced(workload, in_dir, args.seconds)
        else:
            measured = measure(workload, in_dir, args.seconds)
        status = max(status, report(args, workload, measured))
    return status


if __name__ == "__main__":
    sys.exit(main())
