"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload session-vgg --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics listed in ``BENCHMARK.json`` untraced; ``--trace 1`` runs the
workload again traced and reports the per-layer metrics, writing every
span to ``.perfbench_out/``.  The metrics are printed one per line,
then the result as one JSON object on the last line of standard output.
Exits non-zero, printing no result, when the program is missing, an
output check raises, or a server leaves a process or shm segment alive.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in catalogue["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # single-threaded BLAS, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from multiprocessing import resource_tracker

    import harness
    import workloads

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    # temporary files of this process and its workers stay in the checkout
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    try:
        outcomes, values, log = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # shared memory starts the stdlib's tracker process: stop it and
        # wait for it, so the run leaves no process behind
        stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
        if stop is not None:
            stop()
    metrics = catalogue["per_layer" if args.trace else "end_to_end"]
    line = harness.result_line(outcomes, values, metrics)
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        log.dump(spans)
        print(f"# spans written to {spans.relative_to(ROOT)}")
    params = json.dumps(workloads.WORKLOADS[args.workload], sort_keys=True)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} {params}")
    for m in metrics:
        print(f"{args.workload:16s} {m['name']:38s} {values[m['name']]:14.6g} {m['unit']}")
    print(f"{args.workload:16s} {'attempted':38s} {outcomes.attempted:14d}")
    print(f"{args.workload:16s} {'failed':38s} {outcomes.failed:14d} {outcomes.errors or ''}")
    print(f"{args.workload:16s} {'error_rate':38s} {outcomes.error_rate:14.6g} ratio")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
