"""Benchmark of the `zdl` CLI: seeded sessions run as child processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lee_window --seed 1 --seconds 28 --trace 0

One single-threaded generator runs the workload's session (a seeded list
of subcommands, see sessions.py) again and again, one command at a time
(a closed loop with one client), while another session still fits in
`--seconds` of session time.  Each command runs as `python -m zdl.cli ... --out FILE`; its
output is checked by oracle.py outside the timed region.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: median session
wall time, children's CPU time and peak RSS, the median time of
`zdl --help` (interpreter start, imports, parser) and the share of
commands that passed.  --trace 1 alternates plain sessions with sessions
run through traced_cli.py and prints the per-layer metrics.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A full run record (environment, every command,
SHA-256 of every output, per-round figures, all span totals) goes to
.perfbench_out/records/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import sessions

HERE = Path(__file__).resolve().parent
# `zdl --help` runs before the first session, then one after every session,
# so the setup_s median spans the whole run.
SETUP_FIRST = 5
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict:
    """Environment of every child: ZDL_THREADS unset, one BLAS thread.

    One thread keeps each child on one core of a small shared host, so the
    timings measure the program rather than the scheduler."""
    env = {k: v for k, v in os.environ.items() if k != "ZDL_THREADS"}
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env, cwd, err_path):
    """Run one child to completion: (status, wall s, user+sys CPU s, max RSS MB)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def sha256(path: Path):
    if not path.exists():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Runs and checks the sessions of one workload and seed."""

    def __init__(self, root: Path, workdir: Path, commands):
        self.root = root
        self.workdir = workdir
        self.commands = commands
        self.env = child_env(root)
        self.checked = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.setup = []

    def time_setup(self, repeats: int) -> None:
        """Time `zdl --help`: interpreter start, imports and parser."""
        argv = [sys.executable, "-m", "zdl.cli", "--help"]
        for _ in range(repeats):
            status, wall, _, _ = run_child(argv, self.env, self.root, self.workdir / "help.err")
            if status != 0:
                raise RuntimeError(f"`zdl --help` exited with status {status}")
            self.setup.append(wall)

    def session(self, traced: bool) -> dict:
        """One timed pass over the session, then its checks (untimed)."""
        outs = [self.workdir / f"c{i}.json" for i in range(len(self.commands))]
        for out in outs:
            out.unlink(missing_ok=True)
        children = []
        start = time.perf_counter()
        for i, (cmd, out) in enumerate(zip(self.commands, outs)):
            if traced:
                head = [sys.executable, str(HERE / "traced_cli.py"),
                        str(self.workdir / f"c{i}.stats.json")]
            else:
                head = [sys.executable, "-m", "zdl.cli"]
            argv = head + list(cmd.argv) + ["--out", str(out)]
            children.append(run_child(argv, self.env, self.root, self.workdir / f"c{i}.err"))
        wall = time.perf_counter() - start

        hashes = []
        for i, (cmd, out, child) in enumerate(zip(self.commands, outs, children)):
            status = child[0]
            stderr = (self.workdir / f"c{i}.err").read_text(errors="replace")
            digest = sha256(out)
            key = (i, status, digest, stderr)
            if key not in self.checked:
                self.checked[key] = oracle.check(cmd, status, stderr, out)
                unexpected = [f for f in self.checked[key] if f[0] not in cmd.known]
                if unexpected:
                    self.unexpected.append({"command": i, "failures": unexpected})
            self.attempted += 1
            self.failed += bool(self.checked[key])
            hashes.append(digest)
        return {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": sum(c[2] for c in children),
            "peak_rss_mb": max(c[3] for c in children),
            "commands": [{"status": c[0], "wall_s": c[1], "cpu_s": c[2], "rss_mb": c[3],
                          "sha256": h} for c, h in zip(children, hashes)],
            "layers": self.layer_totals() if traced else None,
        }

    def layer_totals(self) -> dict:
        """Per-layer totals of the traced session just run, summed over commands."""
        flat = {}
        for i in range(len(self.commands)):
            with open(self.workdir / f"c{i}.stats.json") as handle:
                record = json.load(handle)
            for span, stat in record["spans"].items():
                for key, value in stat.items():
                    flat[f"{span}.{key}"] = flat.get(f"{span}.{key}", 0) + value
            for layer, count in record["errors"].items():
                flat[f"{layer}.errors"] = flat.get(f"{layer}.errors", 0) + count
            flat["cli.output_bytes"] = flat.get("cli.output_bytes", 0) + record["output_bytes"]
        refined = flat.get("zero_finder.refine.calls", 0)
        kept = flat.get("zero_finder.zeros_between.zeros", 0)
        flat["zero_finder.zero_ratio"] = kept / refined if refined else 0.0
        return flat


def measure(runner: Runner, seconds: float, trace: bool):
    """Sessions while the next one still fits in `seconds` of session time,
    at least one.  In trace mode a plain and a traced session alternate,
    in pairs."""
    rounds = []
    spent = last = 0.0
    runner.time_setup(SETUP_FIRST)
    while not rounds or spent + last <= seconds:
        batch = [runner.session(False)]
        if trace:
            batch.append(runner.session(True))
        runner.time_setup(1)
        last = sum(r["wall_s"] for r in batch)
        spent += last
        rounds += batch
    return rounds


def end_to_end(rounds, runner) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(runner.setup),
        "ok_ratio": 1.0 - runner.failed / runner.attempted,
    }


def per_layer(rounds, runner) -> dict:
    plain = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    traced = [r for r in rounds if r["traced"]]
    keys = set().union(*(r["layers"] for r in traced))
    out = {k: statistics.median(r["layers"].get(k, 0) for r in traced) for k in keys}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = traced_wall - plain
    # Time outside every span beyond what interpreter start-up explains.
    out["trace.unaccounted_s"] = (traced_wall - out.get("cli.main.s", 0.0)
                                  - len(runner.commands) * statistics.median(runner.setup))
    return out


def context(root: Path, env: dict) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print(sys.version.split()[0], numpy.__version__)"],
        env=env, cwd=root, capture_output=True, text=True, check=True,
    ).stdout.split()
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True,
                               env={"LC_ALL": "C", "PATH": os.environ.get("PATH", "")}).stdout
        for line in lscpu.splitlines():
            name, _, value = line.partition(":")
            if name.strip() in ("L2 cache", "L3 cache"):
                caches[name.strip()] = value.strip()
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    sources = sorted((root / "src" / "zdl").glob("*.py"))
    lines = {p.name: len(p.read_bytes().splitlines()) for p in sources}
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "python": probe[0],
        "numpy": probe[1],
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "caches": caches,
        "git_commit": commit,
        "src_sha256": digest,
        "src_lines": {**lines, "total": sum(lines.values())},
        "child_env": {k: env.get(k) for k in ("ZDL_THREADS", *BLAS_THREAD_VARS, "PYTHONHASHSEED")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(sessions.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "zdl" / "cli.py").is_file():
        print("perfbench: src/zdl/cli.py not found; run from the root of a zdl checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = root / ".perfbench_out"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        commands = sessions.build(args.workload, args.seed)
        runner = Runner(root, workdir, commands)
        rounds = measure(runner, args.seconds, bool(args.trace))
        if args.trace:
            values = per_layer(rounds, runner)
            listed = spec["per_layer"]
        else:
            values = end_to_end(rounds, runner)
            listed = spec["end_to_end"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in listed}
        result = {
            "correct": not runner.unexpected,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "context": context(root, runner.env),
            "session": [{"argv": list(c.argv), "known_defects": sorted(c.known)}
                        for c in commands],
            "failures": [{"command": i, "status": status, "failures": fails}
                         for (i, status, _, _), fails in runner.checked.items() if fails],
            "unexpected": runner.unexpected,
            "setup_s": runner.setup,
            "rounds": rounds,
            "values": values,
            "result": result,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = out_dir / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    for fail in record["failures"]:
        print(f"command {fail['command']} failed: {fail['failures']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
