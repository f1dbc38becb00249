"""The ledger's one command.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py all        [--seed N] [--seconds S]
    python3 benchmarks/ledger/run.py selfcheck  [--seed N] [--seconds S]
    python3 benchmarks/ledger/run.py compare A.json B.json

The first form runs one workload in this process and prints every metric
by name with its unit; the last line of its standard output is the JSON
object the perf gate reads.  ``all`` runs each workload, untraced and
traced, in a fresh subprocess each and merges them into
``out/result.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro import RDFGraph  # noqa: E402

from benchmarks.ledger import compare, layers, metrics  # noqa: E402
from benchmarks.ledger.measure import (  # noqa: E402
    OUT_DIR,
    REFERENCE_S,
    SpanLog,
    host_facts,
    peak_rss_mb,
    speed_probe,
    summarize,
)
from benchmarks.ledger.workloads import WORKLOADS, Checker  # noqa: E402


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
) -> tuple[dict, dict]:
    """Run one workload; return the gate's result object and the detail
    record (rounds, class medians, failures, host facts).  *small*
    shrinks the data and the set-up count for the smoke test."""
    factory = WORKLOADS[name]
    detail: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_facts(),
    }
    if trace:
        log = SpanLog()
        values, checker, extra = layers.traced_run(factory, seed, seconds, small, log)
        log.write(OUT_DIR / f"trace_{name}.json")
        units = metrics.LAYER_UNITS
        detail.update(extra, spans=len(log.spans))
    else:
        cycles = 1 if small else factory.setup_cycles
        setups, raw_setups = [], []
        probe = speed_probe(factory.calibrated)
        before = probe()
        for cycle in range(cycles):
            workload = factory(seed, seconds, small)
            started = time.perf_counter()
            workload.setup()
            raw_setups.append(time.perf_counter() - started)
            after = probe()
            setups.append(raw_setups[-1] * REFERENCE_S / ((before + after) / 2))
            before = after
            if cycle < cycles - 1:
                workload.close()
        checker = Checker()
        try:
            segments = workload.run(checker)
        finally:
            workload.close()
        rss = peak_rss_mb()  # before the oracle's own graph and answers
        checker.verify(RDFGraph(workload.triples()), workload.writes)
        summary = summarize(segments)
        values = {key: summary[key]["median"] for key in metrics.E2E_UNITS if key in summary}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = rss
        units = metrics.E2E_UNITS
        detail.update(
            summary=summary,
            setup_cycles_s=setups,
            raw_setup_cycles_s=raw_setups,
            rounds=len(segments),
            calibration_ms=[1e3 * segment.calib_s for segment in segments],
            samples=sum(len(segment.reads) for segment in segments),
            writes=sum(len(segment.writes) for segment in segments),
            class_medians_ms=[
                {cls: 1e3 * s for cls, s in segment.class_medians().items()}
                for segment in segments
            ],
        )
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{name}: metrics not measured: {missing}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            key: {"value": values[key], "unit": unit} for key, unit in units.items()
        },
    }
    detail.update(result, failed_frac=checker.failed / max(checker.attempted, 1))
    detail["failures"] = checker.messages
    return result, detail


def run_one(args: argparse.Namespace) -> int:
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "_traced" if args.trace else ""
    (OUT_DIR / f"result_{args.workload}{suffix}.json").write_text(
        json.dumps(detail, indent=1)
    )
    for message in detail["failures"]:
        print(f"FAILED: {message}")
    for key, cell in result["metrics"].items():
        print(f"{args.workload:12s} {key:44s} {cell['value']:16.6f} {cell['unit']}")
    if "summary" in detail:
        for key in ("latency_classsum_ms", "write_p50_ms"):
            if key in detail["summary"]:
                print(f"{args.workload:12s} {key:44s} {detail['summary'][key]['median']:16.6f} ms")
    print(
        f"{args.workload:12s} {'failed_frac':44s} {detail['failed_frac']:16.6f} ratio "
        f"({result['failed']} of {result['attempted']})"
    )
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, traced: bool = True) -> dict:
    """Every workload in a fresh subprocess (clean ``ru_maxrss``, no
    warmth carried over), merged into one document."""
    document: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        cell = document["workloads"][name] = {}
        for trace in (0, 1) if traced else (0,):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                raise RuntimeError(f"{name} trace={trace} failed:\n{done.stderr}")
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            suffix = "_traced" if trace else ""
            cell["per_layer" if trace else "end_to_end"] = json.loads(
                (OUT_DIR / f"result_{name}{suffix}.json").read_text()
            )
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", nargs="?", default="run",
                        choices=("run", "all", "selfcheck", "compare"))
    parser.add_argument("files", nargs="*", help="compare: two result.json documents")
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "run":
        if args.workload is None:
            parser.error("--workload is required")
        return run_one(args)
    if args.mode == "compare":
        if len(args.files) != 2:
            parser.error("compare takes two result.json documents")
        first, second = (json.loads(Path(f).read_text()) for f in args.files)
        return compare.report(first, second)
    if args.mode == "all":
        document = run_all(args.seed, args.seconds)
        (OUT_DIR / "result.json").write_text(json.dumps(document, indent=1))
        print(f"wrote {OUT_DIR / 'result.json'}")
        return 0
    first = run_all(args.seed, args.seconds, traced=False)
    second = run_all(args.seed, args.seconds, traced=False)
    (OUT_DIR / "selfcheck_a.json").write_text(json.dumps(first, indent=1))
    (OUT_DIR / "selfcheck_b.json").write_text(json.dumps(second, indent=1))
    return compare.report(first, second, strict=True)


if __name__ == "__main__":
    sys.exit(main())
