"""Benchmark of the grs restoration workloads.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 20]
                             [--trace 0|1]

Run from anywhere inside a checkout of the repository; grs is imported from
its ``src/``.  The process runs single-threaded (BLAS thread pools are
pinned to one thread before numpy loads).  Set-up (importing grs, parsing
the cases, generating the damage scenarios) is timed apart from the rounds
that follow: each round runs every operation of the workload once, and
rounds repeat until ``--seconds`` of them have been measured.  Every
output then goes through the independent checks of ``checks.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones: ``setup_s`` (median of four set-ups),
``run_ref_s`` (median round, in the reference seconds of ``probe.py``),
``true_ens_mwh`` (AC true ENS summed over a round's plans) and
``peak_rss_mb`` (after the first round).  Three of the set-ups run in
fresh processes, spread between the rounds at a quarter, half and three
quarters of ``--seconds``.  With ``--trace 1`` an unmeasured warm-up round
comes first, then rounds alternate traced and untraced; the per-layer
metrics are medians over the traced rounds, and the spans are written to
``perfbench/out/`` when the run ends.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4  # one in the run's own process, the rest in fresh ones


class Capture:
    """Wraps ``workflows.solve_mip`` to keep each (model, limits, solution)."""

    def __init__(self, workflows):
        self.real = workflows.solve_mip
        self.solves: list[tuple] = []

        def solve_mip(model, limits=None):
            sol = self.real(model, limits)
            self.solves.append((model, limits, sol))
            return sol

        workflows.solve_mip = solve_mip


def run_round(ops, capture, tracer):
    """Run every operation once; returns (seconds, [(op, out, error, solves)])."""
    results = []
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        first = len(capture.solves)
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((op, out, err, capture.solves[first:]))
    seconds = time.perf_counter() - t0
    capture.solves.clear()
    return seconds, results


def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print its seconds")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "grs" / "__init__.py").is_file():
        print(f"perfbench: no grs package under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tracer = None
    if args.trace:
        import spans  # imports grs, so set-up is not timed in a traced run

        tracer = spans.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if tracer is not None:
        tracer.uninstall()
        setup_spans = len(tracer.spans)

    import grs.workflows
    from probe import SpeedProbe

    probe = SpeedProbe() if tracer is None else None
    capture = Capture(grs.workflows)
    rounds = []  # (seconds, traced, span range, results)
    ref_rounds = []  # untraced rounds in reference seconds
    setups = [setup_s]
    peak_rss_mb = None
    measured = 0.0
    if tracer is not None:
        run_round(ops, capture, None)  # warm-up, so tracing is not charged for it
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            lo = len(tracer.spans)
            tracer.install()
        if probe is not None:
            probe.start()
        seconds, results = run_round(ops, capture, tracer if traced else None)
        if probe is not None:
            probe.stop()
            ref_rounds.append(probe.rescale(seconds))
        if traced:
            tracer.uninstall()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append((seconds, traced, (lo, len(tracer.spans)) if traced
                       else None, results))
        measured += seconds
        if (tracer is None and len(setups) < SETUP_SAMPLES
                and measured >= len(setups) * args.seconds / SETUP_SAMPLES):
            setups.append(setup_in_fresh_process(args.workload, args.seed))
        if measured >= args.seconds and (tracer is None or len(rounds) >= 2):
            break

    correct, attempted, failed, ens = check_rounds(rounds)
    untraced = [r[0] for r in rounds if not r[1]]
    print("untraced rounds, wall s: " + " ".join(f"{t:.3f}" for t in untraced),
          file=sys.stderr)
    if ref_rounds:
        print("untraced rounds, reference s: "
              + " ".join(f"{t:.3f}" for t in ref_rounds), file=sys.stderr)
    if tracer is None:
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_in_fresh_process(args.workload, args.seed))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_ref_s": (statistics.median(ref_rounds), "s"),
            "true_ens_mwh": (ens, "MWh"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = traced_metrics(spans, tracer, setup_spans, rounds, untraced)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def check_rounds(rounds):
    """Check every output; identical outputs share one verdict.

    Returns (correct, attempted, failed, true ENS of the first round).  An
    operation fails when it raised or its output failed a check.
    """
    verdicts: dict[tuple[str, str], list[str]] = {}
    attempted = failed = 0
    correct = True
    for _, _, _, results in rounds:
        for op, out, err, solves in results:
            attempted += 1
            if err is not None:
                print(f"{op.name}: {err}", file=sys.stderr)
                failed += 1
                continue
            key = (op.name, op.digest(out))
            if key not in verdicts:
                verdicts[key] = op.check(out, solves)
            if verdicts[key]:
                print(f"{op.name}: " + "; ".join(verdicts[key]),
                      file=sys.stderr)
                correct = False
                failed += 1
    ens = sum(op.true_ens(out) for op, out, err, _ in rounds[0][3]
              if err is None)
    return correct, attempted, failed, ens


UNITS = {"per_s": "1/s", "per_iter": "s/iter", "per_lp": "iter/lp",
         "per_newton_solve": "s/solve", "_pct": "%", "_s": "s"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced_metrics(spans, tracer, setup_spans, rounds, untraced):
    per_round = [spans.layer_metrics(tracer.spans, *r[2]) for r in rounds
                 if r[1]]
    metrics = {name: (statistics.median(m[name] for m in per_round),
                      unit_of(name)) for name in per_round[0]}
    # netio works only during set-up, so its figures come from those spans
    setup = spans.layer_metrics(tracer.spans, 0, setup_spans)
    for name in ("netio.calls", "netio.busy_s", "netio.self_s"):
        metrics[name] = (setup[name], unit_of(name))
    metrics["netio.load_case_s"] = (sum(
        s[2] - s[1] for s in tracer.spans[:setup_spans]
        if s[0] == "netio.load_case"), "s")
    traced_s = statistics.median(r[0] for r in rounds if r[1])
    base_s = statistics.median(untraced)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.untraced_run_s"] = (base_s, "s")
    metrics["trace.overhead_s"] = (traced_s - base_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - base_s) / base_s, "%")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
