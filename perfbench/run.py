"""fedforge benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced pass.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a fedforge checkout; it uses ``src/`` there and
nothing installed.  Workloads: launch_star3, launch_clique2, relay_clique2,
sim_clique3 (see ``workloads.py`` and ``METRICS.md``).

With ``--trace 0`` it sets the workload up several times for ``setup_s``,
then runs it back to back for ``--seconds`` and reports medians over the
runs.  With ``--trace 1`` it alternates untraced and traced runs for
``--seconds``, reports per-layer medians over the traced runs, and writes
their spans to ``.perfbench/spans-<workload>-seed<N>.jsonl``.

Metric names and units come from ``BENCHMARK.json`` at the root.  Every
run's payloads are checked against an in-process reference.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment, the
reference digests and ``fail_share``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _measure(workload, seconds: float, trace: bool):
    """Closed loop of runs for ``seconds``; traced runs pair with untraced ones."""
    runs, traced = [], []
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        runs.append(workload.run(index, traced=False))
        if trace:
            run = workload.run(index, traced=True)
            if run.error is None and runs[-1].error is None and run.payloads != runs[-1].payloads:
                run.error = "traced payloads differ from the untraced run's"
            traced.append(run)
        index += 1
        if time.monotonic() >= deadline:
            return runs, traced


def _median(runs, attr: str) -> float:
    return statistics.median(getattr(r, attr) for r in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fedforge" / "__init__.py").is_file():
        print(f"perfbench: no fedforge source under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import fedforge
    if Path(fedforge.__file__).resolve().parent != (src / "fedforge").resolve():
        print(f"perfbench: imported fedforge from {fedforge.__file__}, not {src}", file=sys.stderr)
        return 2
    from reference import RefusedInput
    from workloads import WORKLOADS
    import spans

    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        try:
            workload = WORKLOADS[args.workload](root, args.seed, work)
        except RefusedInput as exc:
            print(f"perfbench: refused: {exc}", file=sys.stderr)
            return 2
        setups = [] if args.trace else [workload.setup_once() for _ in range(workload.setup_reps)]
        runs, traced = _measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = runs + traced
    failures = [r.error for r in attempted if r.error is not None]
    good = [r for r in runs if r.error is None]
    good_traced = [r for r in traced if r.error is None]
    if not good or (args.trace and not good_traced):
        for error in failures:
            print(f"perfbench: run failed: {error}", file=sys.stderr)
        print("perfbench: no run passed its checks", file=sys.stderr)
        return 1

    if args.trace:
        rows = []
        for run in good_traced:
            rows += spans.offset(run.spans, len(rows))
        values = {name: statistics.median(r.layer[name] for r in good_traced)
                  for name in good_traced[0].layer}
        values.update(spans.send_metrics(rows))
        values["trace.overhead_s"] = _median(good_traced, "run_s") - _median(good, "run_s")
        units = per_layer
        spans.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", rows)
    else:
        values = {name: _median(good, name) for name in end_to_end if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        units = end_to_end

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(root),
        **workload.info(),
        "runs": len(runs),
        "traced_runs": len(traced),
        "fail_share": {"value": len(failures) / len(attempted), "unit": "share"},
        "failures": failures,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
