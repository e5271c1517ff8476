"""Benchmark for ccm: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload sweep|audit|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; ccm is imported from its src/ directory.
The run sets up its inputs, then times whole rounds of the workload's
items until at least S seconds and the workload's minimum number of
rounds have passed, then checks every output.  The last line
of stdout is {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are end to end; with --trace 1 the layers are
traced and the metrics are per layer, per item.  See README.md.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3


def import_ccm():
    """The checkout's own ccm, never an installed copy."""
    src = ROOT / "src"
    if not (src / "ccm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ccm sources at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import ccm
    from ccm import cli

    if Path(ccm.__file__).resolve().parent != (src / "ccm").resolve():
        raise SystemExit(f"perfbench: imported ccm from {ccm.__file__}, not {src}")
    return types.SimpleNamespace(
        lp=ccm.lp,
        _logmax=sys.modules["ccm._logmax"],
        polytope=ccm.polytope,
        solutions=ccm.solutions,
        market=ccm.market,
        matching=ccm.matching,
        exchange=ccm.exchange,
        cli=cli,
        tolerances=ccm.tolerances,
    )


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def tail_pct(wl) -> float:
    """The highest percentile with ten samples beyond it at the minimum rounds."""
    return 100.0 * (1.0 - 10.0 / (wl.min_rounds * len(wl.labels)))


def setup_probe_seconds(args):
    """Set-up time of a fresh process running this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, seconds, tracer=None):
    """Time whole rounds of wl's items for at least `seconds` and wl.min_rounds rounds.

    Returns per-item wall and CPU times, the first round's outputs, the
    failures found so far (raised or differing from the first round),
    the keys of those that raised, and the number of rounds.
    """
    count = len(wl.labels)
    walls, cpus = [], []
    first, digests, errors, raised = {}, {}, {}, set()
    start = time.perf_counter()
    rounds = 0
    while rounds < wl.min_rounds or time.perf_counter() - start < seconds:
        for i in range(count):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = wl.run(i)
            except Exception as exc:  # an item that raises is a failed operation
                out, exc_text = None, f"{type(exc).__name__}: {exc}"
            else:
                exc_text = None
            c1, w1 = time.process_time(), time.perf_counter()
            walls.append(w1 - w0)
            cpus.append(c1 - c0)
            if tracer is not None:
                tracer.end_item()
            key = (rounds, i)
            if exc_text is not None:
                errors[key] = [exc_text]
                raised.add(key)
            elif rounds == 0:
                first[i] = out
                digests[i] = wl.digest(i, out)
            elif wl.digest(i, out) != digests.get(i):
                errors[key] = ["output differs from the first round's"]
        rounds += 1
    return walls, cpus, first, errors, raised, rounds


def main(argv=None):
    # The load is this process plus the sweep's own thread pool: numpy's BLAS
    # starts no threads of its own (set before numpy is first imported).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    args = ap.parse_args(argv)

    # The program runs as shipped: its worker-count knob keeps its default.
    os.environ.pop("CCM_THREADS", None)
    ccm = import_ccm()
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        wl = WORKLOADS[args.workload](ccm, args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, ccm, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass


def run(args, ccm, wl, setup_s):
    tracer = None
    if args.trace:
        from tracer import LAYERS, Tracer

        tracer = Tracer({layer: getattr(ccm, layer) for layer in LAYERS})
        tracer.install()
    else:
        setups = [setup_s] + [setup_probe_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    try:
        walls, cpus, first, errors, raised, rounds = measure(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks run after timing and after the memory reading.
    setup_errors = wl.check_setup()
    for i, out in first.items():
        errs = wl.check(i, out)
        if errs:
            errors[(0, i)] = errs
    for (rnd, i), errs in sorted(errors.items())[:20]:
        print(f"FAILED round {rnd} item {i} ({wl.labels[i]}): {'; '.join(errs)}", file=sys.stderr)
    for err in setup_errors[:20]:
        print(f"SET-UP CHECK FAILED: {err}", file=sys.stderr)

    attempted = len(walls)
    total_wall = sum(walls)
    ordered = sorted(walls)
    summary = {
        "workload": wl.name, "seed": args.seed, "rounds": rounds, "items_per_round": len(wl.labels),
        "items_per_s": attempted / total_wall,
    }
    if tracer is not None:
        from tracer import PER_LAYER

        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in tracer.metrics().items()}
        summary["layer_self_ms_per_item"] = tracer.layer_self_ms()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": attempted / total_wall, "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(walls) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": nearest_rank(ordered, tail_pct(wl)) * 1e3, "unit": "ms"},
            "cpu_ms_per_item": {"value": sum(cpus) / attempted * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        summary["setup_samples_s"] = setups
        summary["tail_pct"] = tail_pct(wl)
    print(json.dumps(summary), file=sys.stderr)
    result = {
        # An item that raised is a failed operation; a wrong output is also incorrect.
        "correct": not setup_errors and set(errors) <= raised,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
