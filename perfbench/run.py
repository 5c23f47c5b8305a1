"""chunksmooth benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload scan|attack|train --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ./src and
driven through ``chunksmooth.cli.main`` in process, one call at a time.
Set-up (making the workload's inputs from --seed) runs three times and
reports its median; one warm-up pass on small inputs follows; then whole
rounds of the workload's calls run until --seconds have passed.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1, rounds alternate untraced and traced, and it is the per-layer
result of the traced rounds plus the traced-minus-untraced difference of
each end-to-end figure.  Spans go to perfbench/out/trace-<workload>-<seed>.jsonl.
See perfbench/README.md for the metrics and the checks.
"""

import os

# One BLAS thread: the workloads are one sequential client, and with two
# threads the small conv GEMMs of a smoothed prediction run 2.6x slower on a
# 2-core machine.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3


class Runner:
    """Makes CLI calls in process and counts them."""

    def __init__(self, cli):
        self.cli_module = cli
        self.clock = time.perf_counter
        self.attempted = 0
        self.failed = 0

    def cli(self, argv: list[str]):
        """(seconds, stdout) of one call, or None when it fails."""
        self.attempted += 1
        out = io.StringIO()
        t0 = self.clock()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli_module.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        seconds = self.clock() - t0
        if code != 0:
            self.failed += 1
            print(f"failed ({code}): chunksmooth {' '.join(argv)}", file=sys.stderr)
            return None
        return seconds, out.getvalue()


def _median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="chunksmooth benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = HERE.parent / "src"
    if not (src / "chunksmooth" / "__init__.py").is_file():
        print(f"error: no chunksmooth package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    from chunksmooth import cli

    import spans as tracing
    from reference import CheckFailed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, synth_rate = [], []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = workload.setup(work / f"setup{k}", args.seed)
            setup_s.append(time.perf_counter() - t0)
            synth_rate.append(inp["synth_files"] / inp["synth_s"])
            if k + 1 < SETUP_REPEATS:
                shutil.rmtree(work / f"setup{k}")

        run = Runner(cli)
        workload.warmup(run, inp)

        tracer = tracing.Tracer() if args.trace else None
        per_item = {False: defaultdict(list), True: defaultdict(list)}
        stage = defaultdict(list)
        round_s = {False: [], True: []}
        correct, first = True, None
        t_start = time.perf_counter()
        n = 0
        while True:
            traced = bool(args.trace) and n % 2 == 1
            if traced:
                tracer.install()
                run.clock = tracer.now
            t0 = run.clock()
            try:
                out, items, stages = workload.round(run, inp)
            finally:
                if traced:
                    tracer.uninstall()
            round_s[traced].append(run.clock() - t0)
            run.clock = time.perf_counter
            for kind, values in items.items():
                per_item[traced][kind].extend(values)
            if not traced:
                for name, values in stages.items():
                    stage[name].extend(values)
            print(f"round {n + 1}{' traced' if traced else ''}: {round_s[traced][-1]:.3f} s, ms per item "
                  + ", ".join(f"{k} {statistics.fmean(v):.3f}" for k, v in items.items() if v), file=sys.stderr)
            try:
                if first is None:
                    first = workload.comparable(out)
                    workload.check(out, inp)
                elif workload.comparable(out) != first:
                    raise CheckFailed(f"round {n + 1} outputs differ from round 1")
            except CheckFailed as exc:
                correct = False
                print(f"check failed: {exc}", file=sys.stderr)
            except Exception:  # a check that crashes has failed too; keep the run going
                correct = False
                traceback.print_exc()
            n += 1
            if time.perf_counter() - t_start >= args.seconds and (not args.trace or n >= 2):
                break

        metrics = {}
        if not args.trace:
            metrics["setup_s"] = (_median(setup_s), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            metrics["ns_ms_per_item"] = (_median(per_item[False]["ns"]), "ms")
            metrics["sca_ms_per_item"] = (_median(per_item[False]["sca"]), "ms")
        else:
            metrics.update(tracing.layer_metrics(tracer, len(round_s[True])))
            metrics.update({f"kernels.{k}": v for k, v in tracing.kernel_cases().items()})
            metrics["overhead.round_s"] = (_median(round_s[True]) - _median(round_s[False]), "s")
            for kind in ("ns", "sca"):
                metrics[f"overhead.{kind}_ms_per_item"] = (
                    _median(per_item[True][kind]) - _median(per_item[False][kind]), "ms"
                )
            metrics["corpus.synth_files_per_s"] = (_median(synth_rate), "files/s")
            for name in ("rca_ms_per_file", "rs_ms_per_file", "classify_sca_ms"):
                metrics[f"stage.{name}"] = (_median(stage[name]), "ms")
            (HERE / "out").mkdir(exist_ok=True)
            tracer.write_jsonl(HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
