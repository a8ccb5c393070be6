"""Paired per-file A/B timing of two revmatch checkouts.

Usage, from the repository root, with a second checkout (say, the parent
commit unpacked by ``git archive``) at ``../parent``:

    python3 tools/paired_ab.py --parent ../parent --change . \\
        --workload blind --seed 7 --seed 11 --cycles 1 --repeats 2

One worker process is started per checkout. Each imports ``revmatch`` from
its checkout's ``src`` and that checkout's ``perfbench/workloads.py`` (read
only: no bytecode is written there), runs the workload's set-up and warm-up
file, and builds the same seeded input files. The controller then runs every
file once on each side per repeat, alternating which side goes first, so
both sides see the same inputs under the same machine load. Each time is
``workloads.run_file``'s, from WAV read to WAV write, as in the benchmark.

It prints one line per pair, then the change/parent time ratio's median and
quartiles, the pairs the change won, and how many files gave sha256-identical
inputs and outputs on both sides; the last line is the same summary as JSON.
``--smoke`` runs the benchmark's smoke settings (one short input, tiny
solves) to check the plumbing. The exit code is 1 when a file failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
DEFAULT_SEEDS = (7, 11)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", help="checkout A")
    p.add_argument("--change", help="checkout B")
    p.add_argument("--workload", default="blind",
                   choices=["oracle", "blind", "forward-full"])
    p.add_argument("--seed", type=int, action="append", default=None,
                   help=f"workload seed, repeatable (default "
                        f"{' '.join(map(str, DEFAULT_SEEDS))})")
    p.add_argument("--cycles", type=int, default=1,
                   help="cycles of files per seed")
    p.add_argument("--repeats", type=int, default=2,
                   help="times every file runs on each side")
    p.add_argument("--smoke", action="store_true",
                   help="the benchmark's smoke settings: plumbing check only")
    p.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = list(DEFAULT_SEEDS)
    if args.worker is None and None in (args.parent, args.change):
        p.error("--parent and --change are required")
    if args.cycles < 1 or args.repeats < 1:
        p.error("--cycles and --repeats must be >= 1")
    return args


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _send(stream, message):
    stream.write(json.dumps(message) + "\n")
    stream.flush()


def worker(args):
    """Set up one checkout, announce its files, then run the file whose
    position each stdin line names, answering one JSON line each."""
    proto, sys.stdout = sys.stdout, sys.stderr
    root = Path(args.worker).resolve()
    src = root / "src"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(root / "perfbench")]
    import revmatch
    import revmatch.cli  # noqa: F401 - set up before any timing, as run.py
    import workloads

    if Path(revmatch.__file__).resolve().parent != src / "revmatch":
        raise SystemExit(f"error: imported revmatch from {revmatch.__file__}")
    settings = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = Path(tempfile.mkdtemp(prefix="paired-ab-"))
    try:
        runner = workloads.RUNNERS[args.workload](revmatch, settings, workdir)
        runner.prepare()
        warm = workloads.warmup_input(revmatch, settings, workdir)
        rec = workloads.run_file(runner, warm, workdir / "warmup-out.wav")
        if not rec.ok:
            raise SystemExit(f"error: warm-up file failed: {rec.error}")
        items, names = [], []
        for seed in args.seed:
            # file names repeat across seeds: one directory of inputs each
            seed_dir = workdir / f"seed{seed}"
            seed_dir.mkdir()
            maker = workloads.RUNNERS[args.workload](revmatch, settings,
                                                     seed_dir)
            for cycle in range(args.cycles):
                for item in workloads.cycle_inputs(maker, seed, cycle):
                    items.append(item)
                    names.append(f"s{seed}-{item.index:02d}")
        _send(proto, {"files": [
            {"name": name, "input": sha256(item.wet_path)}
            for name, item in zip(names, items)]})
        for line in sys.stdin:
            item = items[int(line)]
            out = workdir / f"out-{item.index}.wav"
            rec = workloads.run_file(runner, item, out)
            workloads.check_output(runner, rec)
            _send(proto, {"seconds": rec.seconds, "error": rec.error,
                          "output": sha256(out) if rec.ok else None})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Worker:
    """A worker process for one checkout, spoken to by JSON lines."""

    def __init__(self, checkout, args):
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--worker", str(checkout), "--workload", args.workload,
                "--cycles", str(args.cycles)]
        argv += [a for seed in args.seed for a in ("--seed", str(seed))]
        if args.smoke:
            argv.append("--smoke")
        # one client uses one core, as in the benchmark
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONDONTWRITEBYTECODE="1")
        self.checkout = checkout
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=env)

    def receive(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: the worker for {self.checkout} exited "
                             f"with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, position):
        _send(self.proc.stdin, position)
        return self.receive()

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def controller(args):
    workers = {}
    try:
        for side in SIDES:
            workers[side] = Worker(Path(getattr(args, side)).resolve(), args)
        files = {side: workers[side].receive()["files"] for side in SIDES}
        if [f["name"] for f in files["parent"]] != [
                f["name"] for f in files["change"]]:
            raise SystemExit("error: the checkouts build different file lists")
        n_files = len(files["parent"])
        print(f"# parent {args.parent}, change {args.change}, workload "
              f"{args.workload}, seeds {args.seed}, {args.cycles} cycle(s), "
              f"{args.repeats} repeat(s), {n_files} files")
        print("# file repeat first parent_s change_s ratio same_output "
              "change_sha256")
        ratios, wins, errors, outputs = [], 0, 0, {}
        for repeat in range(args.repeats):
            for k, f in enumerate(files["parent"]):
                order = SIDES if (k + repeat) % 2 == 0 else SIDES[::-1]
                res = {side: workers[side].run(k) for side in order}
                failed = [f"{s}: {res[s]['error']}" for s in SIDES
                          if res[s]["error"]]
                if failed:
                    errors += 1
                    print(f"{f['name']} {repeat} {order[0]} failed "
                          + "; ".join(failed))
                    continue
                ratio = res["change"]["seconds"] / res["parent"]["seconds"]
                ratios.append(ratio)
                wins += ratio < 1.0
                same = res["change"]["output"] == res["parent"]["output"]
                outputs.setdefault(k, set()).add(same)
                print(f"{f['name']} {repeat} {order[0]} "
                      f"{res['parent']['seconds']:.4f} "
                      f"{res['change']['seconds']:.4f} {ratio:.3f} "
                      f"{'yes' if same else 'no'} {res['change']['output']}")
    finally:
        for w in workers.values():
            w.close()
    same_inputs = sum(a["input"] == b["input"]
                      for a, b in zip(files["parent"], files["change"]))
    same_outputs = sum(seen == {True} for seen in outputs.values())
    summary = {"files": n_files, "pairs": len(ratios), "wins": wins,
               "failed_pairs": errors, "same_inputs": same_inputs,
               "same_outputs": same_outputs}
    if ratios:
        q1, med, q3 = (float(q) for q in np.percentile(ratios, [25, 50, 75]))
        summary.update(ratio_median=med, ratio_q1=q1, ratio_q3=q3)
        print(f"ratio change/parent: median {med:.3f} "
              f"(IQR {q1:.3f}-{q3:.3f}) over {len(ratios)} pairs")
    print(f"change faster in {wins} of {len(ratios)} pairs; "
          f"{errors} pair(s) failed")
    print(f"inputs sha256-identical in {same_inputs} of {n_files} files; "
          f"outputs in {same_outputs} of {n_files} files")
    print(json.dumps(summary))
    return 1 if errors else 0


def main(argv=None):
    args = parse_args(argv)
    if args.worker is not None:
        worker(args)
        return 0
    return controller(args)


if __name__ == "__main__":
    sys.exit(main())
