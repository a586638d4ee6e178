"""End-to-end benchmark of the splotlearn CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of train, sweights_1m, csv_ingest, sweep_pool, or ``all`` to run
the four in turn.  Each command runs in a fresh process with one BLAS
thread; its outputs are checked after the timed interval.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` every
round runs the command once untraced and once under ``trace_cli.py``, and
the per-layer metrics and the tracing overhead are reported.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# On two cores, the default two OpenBLAS threads took the train command
# 8.1-10.0 s and 1.5x the CPU, against 8.5-8.6 s with one thread.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(ONE_BLAS_THREAD)
sys.path[:0] = [str(BENCH), str(SRC)]

import workloads  # noqa: E402  (after the BLAS setting, before numpy loads)

SETUP_PER_ROUND = 4
MIN_SETUP_SAMPLES = 8
RUN_DEADLINE_S = 170.0

END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mib")


class Spawner:
    """Client of ``spawn.py``, which starts and times every command."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv, cwd: Path, timeout: float) -> dict:
        stderr = cwd / "stderr.txt"
        req = {"argv": argv, "cwd": str(cwd), "env": self.env, "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        res = json.loads(self.proc.stdout.readline())
        res["stderr"] = stderr.read_text(errors="replace")[-2000:]
        return res

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


class Run:
    """Operations, samples and failures of one workload run."""

    def __init__(self, workload: workloads.Workload, run_dir: Path, spawner: Spawner, deadline: float):
        self.workload = workload
        self.run_dir = run_dir
        self.spawner = spawner
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.errors = []
        self.samples = {}

    def add(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def process(self, argv, cwd: Path) -> dict:
        return self.spawner.run(argv, cwd, self.deadline - time.monotonic())

    def command(self, argv, index: int) -> dict:
        """Run one command, then check its outputs outside the timed interval."""
        out_dir = self.run_dir / f"out{index}"
        out_dir.mkdir()
        res = self.process(argv + ["--out", str(out_dir)], out_dir)
        if res["rc"] != 0:
            outcome = self.workload.failed_command(f"exit code {res['rc']}: {res['stderr'].strip()[-500:]}")
        else:
            try:
                outcome = self.workload.check(out_dir)
            except (OSError, ValueError, KeyError) as exc:
                outcome = self.workload.failed_command(f"output unreadable: {exc!r}")
            self.check_failures += outcome.failed
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors += outcome.errors
        shutil.rmtree(out_dir)
        return res

    def setup_sample(self, keep: bool = True) -> None:
        """Import splotlearn.cli and parse the workload's config in a fresh process."""
        code = "import sys, splotlearn.cli as c; c.load_config(sys.argv[1])"
        res = self.process([sys.executable, "-c", code, str(self.workload.config_path)], self.run_dir)
        if res["rc"] != 0:
            raise SystemExit(f"set-up failed: {res['stderr']}")
        if keep:
            self.add("setup_s", res["wall_s"])


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Whole rounds of the workload's command until the next would overrun ``seconds``.

    Set-up samples are taken between rounds rather than all at the start,
    so that their median spans the same stretch of time as the commands.
    """
    cli = [sys.executable, "-m", "splotlearn.cli", *run.workload.cli_args]
    traced = [sys.executable, str(BENCH / "trace_cli.py"), str(run.run_dir / "trace.json"), *run.workload.cli_args]
    if not trace:
        run.setup_sample(keep=False)  # writes the byte-code caches of a fresh checkout
    rounds, elapsed, layers = [], 0.0, {}
    while True:
        res = run.command(cli, 2 * len(rounds))
        spent = res["wall_s"]
        for name in ("wall_s", "cpu_s", "peak_rss_mib"):
            run.add(name, res[name])
        if trace:
            tres = run.command(traced, 2 * len(rounds) + 1)
            spent += tres["wall_s"]
            run.add("traced_wall_s", tres["wall_s"])
            if tres["rc"] == 0:
                with open(run.run_dir / "trace.json", encoding="utf-8") as f:
                    trace_doc = json.load(f)
                for name, value in trace_doc["metrics"].items():
                    layers.setdefault(name, []).append(value)
                shutil.copyfile(run.run_dir / "trace.json", OUT / f"trace-{run.workload.name}.json")
        else:
            for _ in range(SETUP_PER_ROUND):
                run.setup_sample()
        rounds.append(spent)
        elapsed += spent
        if elapsed + statistics.median(rounds) > seconds or time.monotonic() + 2 * max(rounds) > run.deadline:
            break
    if not trace:
        while len(run.samples["setup_s"]) < MIN_SETUP_SAMPLES:
            run.setup_sample()
        return {name: statistics.median(run.samples[name]) for name in END_TO_END}
    metrics = {name: statistics.median(values) for name, values in layers.items()}
    metrics["trace.wall_s"] = statistics.median(run.samples["traced_wall_s"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(run.samples["wall_s"])
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, spawner: Spawner, deadline: float):
    run_dir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        run = Run(workloads.WORKLOADS[name](run_dir, seed), run_dir, spawner, deadline)
        metrics = measure(run, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return run, metrics


def metric_units() -> dict:
    """Unit of every metric, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(name: str, seed: int, run: Run, metrics: dict, units: dict) -> None:
    print(f"workload {name}  seed {seed}  attempted {run.attempted}  failed {run.failed}")
    for metric, value in metrics.items():
        n = len(run.samples.get(metric, run.samples.get("traced_wall_s", [])))
        print(f"  {metric:<40} {units[metric]:>6}  n={n:<3} median {value:.6g}")
    for err in run.errors[:10]:
        print(f"  FAILED: {err}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "splotlearn" / "cli.py").is_file():
        print(f"no splotlearn sources under {SRC}", file=sys.stderr)
        return 2

    units = metric_units()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    correct, attempted, failed, metrics = True, 0, 0, {}
    spawner = Spawner()
    try:
        for i, name in enumerate(names):
            deadline = start + RUN_DEADLINE_S * (i + 1)
            run, found = run_workload(name, args.seed, args.seconds, bool(args.trace), spawner, deadline)
            report(name, args.seed, run, found, units)
            correct &= run.check_failures == 0
            attempted += run.attempted
            failed += run.failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in found.items()})
    finally:
        spawner.close()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
