"""calibrix benchmark: times the CLI chains users run, command by command.

Run from the root of a calibrix checkout:

    python3 perfbench/run.py --workload plate-reference --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30     # every workload, both modes

Each CLI command is its own ``python -m calibrix.cli`` process, started one
at a time with one BLAS thread, because users pay interpreter and import
start-up on every command and nothing carries over between commands.  Op i
of a run uses seed + i.  Times are CPU seconds (user + system, from wait4)
of the command processes, which a shared host's stolen and waiting time do
not inflate; wall times are recorded beside them.  With ``--trace 0`` the
run reports end-to-end metrics; with ``--trace 1`` each op runs once untraced and once under
``traced_cli.py`` with the same seed, and the run reports per-layer metrics
from the traced run, the untraced stage times, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, per-op stage times, output digests, per-stage layer
breakdown) is written to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0  # a run must end within 180 s; commands are killed past this
BLAS_THREADS = "1"
END_TO_END = {"op_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STAGE_METRICS = {f"{stage}_s": "s" for stage in layers.STAGES}
TRACE_ONLY = {"op_wall_s": "s", "trace.overhead_ratio": "ratio", "failed_ratio": "ratio"}


class CommandResult:
    def __init__(self, stage, wall_s, rss_mb, exit_code, digests, log, trace=None,
                 cpu_s=0.0):
        self.stage = stage
        self.log = log
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.exit_code = exit_code
        self.digests = digests
        self.trace = trace


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CALIBRIX_SEED", "PYTHONSTARTUP", "PYTHONHOME")}
    env["PYTHONPATH"] = SRC
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    return env


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _snapshot(directory) -> dict:
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size)
            for e in os.scandir(directory) if e.is_file()}


class Runner:
    def __init__(self, deadline, logs):
        self.deadline = deadline
        self.env = _child_env()
        self.logs = logs
        os.makedirs(self.logs, exist_ok=True)
        self.n_spawned = 0
        self.cpu_s = 0.0  # CPU seconds of every process started so far

    def cli(self, cwd, cli_args, stage="setup", trace_out=None) -> CommandResult:
        """Run one calibrix CLI command, traced when ``trace_out`` is given."""
        if trace_out is None:
            argv = [sys.executable, "-m", "calibrix.cli", *cli_args]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), *cli_args]
        return self.spawn(cwd, argv, stage, trace_out)

    def spawn(self, cwd, argv, stage="setup", trace_out=None) -> CommandResult:
        """Run one process to completion; wall time covers its start-up.

        Its peak RSS comes from wait4, which also counts the pages of this
        process at the time of the spawn, so this process stays small.
        """
        env = dict(self.env, PERFBENCH_TRACE_OUT=trace_out or "")
        self.n_spawned += 1
        log = os.path.join(self.logs, f"{self.n_spawned:04d}-{stage}")
        before = _snapshot(cwd)
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        # Reaped by wait4 above; tell Popen so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        after = _snapshot(cwd)
        digests = {name: _sha256(os.path.join(cwd, name))
                   for name, stamp in sorted(after.items()) if before.get(name) != stamp}
        trace = None
        if trace_out is not None and os.path.exists(trace_out):
            with open(trace_out, "r", encoding="utf-8") as fh:
                trace = json.load(fh)
            trace["stage"] = stage
        cpu = usage.ru_utime + usage.ru_stime
        self.cpu_s += cpu
        return CommandResult(stage, wall, usage.ru_maxrss / 1024.0, proc.returncode,
                             digests, log, trace, cpu)


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed, cli_version) -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "calibrix": cli_version,
        "seed": seed,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
    }


class DigestLedger:
    """sha256 of every output file per (workload, run seed, op seed, inputs),
    kept across the runs in one checkout: a repeated op must write the same
    bytes.  ``inputs`` is a hash of the op's inputs (``input_hash``), so only
    ops with the same inputs are compared."""

    def __init__(self, path):
        self.path = path
        self.entries = {}
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                self.entries = json.load(fh)

    def check(self, workload, seed, op_seed, inputs, digests) -> list:
        key = f"{workload}/{seed}/{op_seed}/{inputs}"
        known = self.entries.setdefault(key, {})
        fail = [f"digest of {name} differs from an earlier op with seed {op_seed}"
                for name, digest in digests.items() if known.get(name, digest) != digest]
        for name, digest in digests.items():
            known.setdefault(name, digest)
        return fail

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


def input_hash(wl, setupdir, opdir) -> str:
    """sha256 of what an op's outputs depend on besides the program: the
    meshes it is given and the config files of the op and of its set-up."""
    digest = hashlib.sha256(repr(workloads.PLATE_MESHES.get(wl.name)).encode())
    for directory in (setupdir, opdir):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".cfg"):
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def run_op(runner, wl, setupdir, op_seed, traced) -> dict:
    opdir = os.path.join(setupdir, f"op{op_seed}" + ("-traced" if traced else ""))
    os.makedirs(opdir)
    traces_dir = os.path.join(setupdir, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    commands = wl.commands(op_seed)
    for cmd in commands:
        workloads.write_config(os.path.join(opdir, cmd.config), cmd.keys)
    results = []
    t0 = time.perf_counter()
    for cmd in commands:
        trace_out = (os.path.join(traces_dir, f"{wl.name}-{op_seed}-{cmd.stage}.json")
                     if traced else None)
        if trace_out is not None and os.path.exists(trace_out):
            os.remove(trace_out)
        res = runner.cli(opdir, (*cmd.args, "-c", cmd.config), cmd.stage, trace_out)
        results.append(res)
        if res.exit_code != 0:
            break
    wall_s = time.perf_counter() - t0
    failures = [f"{r.stage}: exit code {r.exit_code}" for r in results if r.exit_code != 0]
    if not failures:
        try:
            failures += wl.check(opdir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failures.append(f"output check could not read the outputs: {exc!r}")
    return {
        "seed": op_seed,
        "traced": traced,
        "inputs": input_hash(wl, setupdir, opdir),
        "dir": opdir,
        "wall_s": wall_s,
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "stage_wall_s": {r.stage: r.wall_s for r in results},
        "stage_cpu_s": {r.stage: r.cpu_s for r in results},
        "digests": {r.stage: r.digests for r in results},
        "traces": [r.trace for r in results if r.trace is not None],
        "failures": failures,
    }


def setup(runner, wl, workdir, seed) -> str:
    """Check that the CLI starts and write the workload's inputs; returns the
    CLI's version."""
    os.makedirs(workdir)

    def check(res, what):
        if res.exit_code != 0:
            raise RuntimeError(f"set-up step {what} exited {res.exit_code}; "
                               f"see {res.log}.err")
        return res

    probe = check(runner.cli(workdir, ("--version",)), "calibrix --version")
    if wl.name in workloads.PLATE_MESHES:
        check(runner.spawn(workdir, [sys.executable, workloads.__file__, wl.name]),
              "writing the meshes")
    if wl.write_inputs is not None:
        wl.write_inputs(workdir, seed,
                        lambda cwd, args: check(runner.cli(cwd, args), " ".join(args)))
    with open(probe.log + ".out", "r", encoding="utf-8") as fh:
        return fh.read().strip()


def run_workload(name, seed, seconds, trace) -> dict:
    t_start = time.monotonic()
    wl = workloads.WORKLOADS[name]
    base = os.path.join(WORK, name)
    shutil.rmtree(base, ignore_errors=True)
    runner = Runner(t_start + RUN_DEADLINE_S, os.path.join(base, "logs"))
    setup_cpu, setup_wall = [], []
    for rep in range(SETUP_REPEATS):
        t0, own0, children0 = time.perf_counter(), time.process_time(), runner.cpu_s
        workdir = os.path.join(base, f"setup{rep}")
        cli_version = setup(runner, wl, workdir, seed)
        setup_cpu.append(runner.cpu_s - children0 + time.process_time() - own0)
        setup_wall.append(time.perf_counter() - t0)
    ledger = DigestLedger(os.path.join(WORK, "digests.json"))

    ops = []
    t_measure = time.monotonic()
    i = 0
    while True:
        pair = [run_op(runner, wl, workdir, seed + i, traced=False)]
        if trace:
            pair.append(run_op(runner, wl, workdir, seed + i, traced=True))
        for op in pair:
            for stage, digests in op["digests"].items():
                op["failures"] += ledger.check(name, seed, op["seed"], op["inputs"], digests)
        ops += pair
        i += 1
        elapsed = time.monotonic() - t_measure
        per_op = elapsed / i
        if elapsed + per_op > seconds or time.monotonic() + per_op > t_start + RUN_DEADLINE_S:
            break
    ledger.save()

    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = sum(1 for op in ops if op["failures"])
    e2e = {
        "op_cpu_s": statistics.median(op["cpu_s"] for op in untraced),
        "setup_s": statistics.median(setup_cpu),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in untraced),
    }
    stage_s = {f"{stage}_s": statistics.median(op["stage_cpu_s"].get(stage, 0.0)
                                               for op in untraced)
               for stage in layers.STAGES}
    record = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed, cli_version),
        "setup_cpu_s": setup_cpu,
        "setup_wall_s": setup_wall,
        "attempted": len(ops),
        "failed": failed,
        "end_to_end": e2e,
        "stage_s": stage_s,
        "ops": [{k: v for k, v in op.items() if k not in ("traces", "dir")} for op in ops],
    }
    cross = []
    if trace:
        per_op, breakdowns = [], []
        for op in traced:
            path = os.path.join(op["dir"], "reduced.txt")
            reports = ({"calibrate_reduced": workloads.read_report(path)}
                       if os.path.exists(path) else {})
            metrics = layers.op_metrics(op["traces"])
            cross += layers.cross_check(name, op["traces"], metrics, reports)
            per_op.append(metrics)
            breakdowns.append(layers.stage_breakdown(op["traces"]))
        # median_low: a count stays a count that some op made.
        layer = {k: statistics.median_low(m[k] for m in per_op) for k in layers.LAYER_METRICS}
        layer.update(stage_s)
        layer["op_wall_s"] = statistics.median(op["wall_s"] for op in untraced)
        layer["trace.overhead_ratio"] = statistics.median(
            t["cpu_s"] / u["cpu_s"] for u, t in zip(untraced, traced))
        layer["failed_ratio"] = failed / len(ops)
        record["per_layer"] = layer
        record["stage_breakdown"] = breakdowns[0]
        record["cross_check_failures"] = cross
    record["correct"] = failed == 0 and not cross
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def result_line(record) -> dict:
    if record["trace"]:
        units = dict(layers.LAYER_METRICS, **STAGE_METRICS, **TRACE_ONLY)
        values = record["per_layer"]
    else:
        units = END_TO_END
        values = record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def print_summary(record) -> None:
    print(f"# {record['workload']}: {record['why']}")
    print("# environment: " + json.dumps(record["environment"], sort_keys=True))
    for op in record["ops"]:
        stages = " ".join(f"{k}={v:.3f}s" for k, v in op["stage_cpu_s"].items())
        state = "FAILED " + "; ".join(op["failures"]) if op["failures"] else "ok"
        print(f"# op seed={op['seed']} traced={op['traced']} cpu_s={op['cpu_s']:.3f} "
              f"wall_s={op['wall_s']:.3f} peak_rss_mb={op['peak_rss_mb']:.1f} {stages} {state}")
    for failure in record.get("cross_check_failures", []):
        print(f"# cross-check FAILED: {failure}")
    rows = dict(record["end_to_end"])
    rows.update({k: v for k, v in record["stage_s"].items() if v > 0.0})
    units = dict(END_TO_END, **STAGE_METRICS)
    rows["failed_ratio"] = record["failed"] / record["attempted"]
    units["failed_ratio"] = "ratio"
    for key, value in rows.items():
        print(f"{record['workload']:16s} {key:24s} {value:12.4f} {units[key]}")
    for key, value in record.get("per_layer", {}).items():
        if key in TRACE_ONLY and key != "failed_ratio":
            print(f"{record['workload']:16s} {key:24s} {value:12.4f} {TRACE_ONLY[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "calibrix", "cli.py")):
        print(f"error: no calibrix sources under {SRC}; run from a calibrix checkout",
              file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    sys.path.insert(0, SRC)
    if args.all:
        correct = True
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                record = run_workload(name, args.seed, args.seconds, trace)
                print_summary(record)
                correct &= record["correct"]
        return 0 if correct else 1
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_summary(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
