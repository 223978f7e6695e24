"""End-to-end benchmark of the repro package: six user workloads.

Run every workload untraced and print each end-to-end metric (median,
quartiles, sample count); ``--out`` also writes the report as JSON::

    python3 benchmarks/e2e/run.py --seed 0 --out report.json

One workload, with the last line of standard output a JSON summary::

    python3 benchmarks/e2e/run.py --workload table1 --seed 3 --seconds 10

``--trace 1`` runs the traced variant instead and reports the per-layer
metrics; ``--trace PATH`` runs both and writes the spans to ``PATH`` as
a Chrome trace-event file.  Compare two reports metric by metric::

    python3 benchmarks/e2e/run.py --compare base.json new.json

Every workload runs in fresh child interpreters (``child.py``), one at a
time, with ``repro`` imported from ``src/`` of this checkout.  The exit
status is 0 when every output check passed, 1 when a check failed (or
``--compare`` found a worse row), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
#: Lock file and temporary files of running benchmarks (git-ignored).
WORK = ROOT / ".e2e_work"

#: The end-to-end metrics every workload reports, with units.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Samples per timed metric for ``--compare``.  Each is the median of one
#: of this many contiguous blocks of passes (or of set-up interpreters),
#: so the spread of the samples shrinks as the blocks grow.
BLOCKS = 3

#: Fresh interpreters timed for ``setup_s`` (the measuring one included).
SETUP_RUNS = 5

#: A child that runs longer than this is killed with its process group.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def load_benchmark() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


def summarize(values: list[float]) -> dict:
    """The median of ``values``, and quartiles and count of its samples.

    The samples are the block medians of ``values``
    (:func:`block_medians`), or ``values`` themselves when there are
    fewer than :data:`BLOCKS`.
    """
    samples = block_medians(values) if len(values) >= BLOCKS else values
    q1 = q3 = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def block_medians(values: list[float]) -> list[float]:
    """Medians of :data:`BLOCKS` contiguous, near-equal blocks of ``values``.

    ``values`` holds at least :data:`BLOCKS` items.
    """
    cuts = [round(i * len(values) / BLOCKS) for i in range(BLOCKS + 1)]
    return [statistics.median(values[a:b]) for a, b in zip(cuts, cuts[1:])]


def child_env(tmp: Path) -> dict:
    """Environment of a child: this checkout's ``src``, one BLAS thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def run_child(args: list[str], env: dict) -> dict:
    """Run ``child.py args`` to completion; return its last output line.

    The child leads its own process group, which is killed after it
    exits, so no worker it started can outlive it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        raise BenchError(f"child {args} timed out after {CHILD_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    env: dict,
    timed: bool,
    traced: bool,
    chrome: Path | None = None,
) -> dict:
    """Measure one workload; returns its section of the report."""
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds)]
    result: dict = {"attempted": 0, "failed": 0, "failures": []}

    def absorb(payload: dict) -> None:
        result["attempted"] += payload["attempted"]
        result["failed"] += payload["failed"]
        result["failures"] += payload["failures"]
        result["digest"] = payload["digest"]
        result["numpy"] = payload["numpy"]

    if timed:
        measured = run_child(["measure", *common], env)
        setups = [measured] + [
            run_child(["setup", *common], env) for _ in range(SETUP_RUNS - 1)
        ]
        absorb(measured)
        result["passes"] = len(measured["pass_s"])
        result["metrics"] = {
            "setup_s": summarize([s["setup_s"] for s in setups]),
            "pass_s": summarize(measured["pass_s"]),
            "work_per_s": summarize(measured["work_per_s"]),
            "peak_rss_mb": summarize([measured["peak_rss_mb"]]),
        }
        result["wall"] = {
            "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
            "pass_s": statistics.median(measured["wall_s"]),
            "kernel_s": statistics.median(measured["kernel_s"]),
        }
    if traced:
        extra = ["--chrome", str(chrome)] if chrome is not None else []
        payload = run_child(["trace", *common, *extra], env)
        absorb(payload)
        result["layers"] = payload["layers"]
    return result


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def merge_chrome(parts: list[tuple[str, Path]], path: str) -> None:
    """Join per-workload trace events into one file, a process each."""
    events: list[dict] = []
    for pid, (name, part) in enumerate(parts):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        with open(part) as handle:
            for event in json.load(handle):
                event["pid"] = pid
                events.append(event)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def render(report: dict, layer_units: dict[str, str]) -> str:
    """The report as text: metrics, checks, layers, environment."""
    lines = [f"{'workload':<12} {'metric':<14} {'unit':<6} {'median':>12} "
             f"{'q1':>12} {'q3':>12} {'n':>4}"]
    for name, section in report["workloads"].items():
        for metric, s in section.get("metrics", {}).items():
            lines.append(
                f"{name:<12} {metric:<14} {END_TO_END[metric]:<6} "
                f"{s['value']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                f"{s['n']:>4}"
            )
    lines.append("")
    for name, section in report["workloads"].items():
        ok = section["attempted"] - section["failed"]
        lines.append(
            f"{name:<12} checks {ok}/{section['attempted']} passed, "
            f"digest {section['digest']}"
        )
        for failure in section["failures"]:
            lines.append(f"{'':<12} FAILED: {failure}")
        if "wall" in section:
            wall = section["wall"]
            lines.append(
                f"{'':<12} wall time: setup {wall['setup_s']:.4g} s, pass "
                f"{wall['pass_s']:.4g} s; calibration kernel "
                f"{wall['kernel_s'] * 1e3:.4g} ms"
            )
    for name, section in report["workloads"].items():
        if "layers" not in section:
            continue
        lines.append("")
        lines.append(f"{name}: per-layer metrics (mean per traced pass)")
        for metric, value in section["layers"].items():
            if value:
                lines.append(
                    f"  {metric:<52} {value:>12.6g} {layer_units[metric]}"
                )
    lines.append("")
    env = report["environment"]
    lines.append(
        "environment: " + ", ".join(
            f"{k}={v}" for k, v in env.items() if k != "workloads"
        )
    )
    return "\n".join(lines)


def compare_rows(base: dict, new: dict, bench: dict) -> list[dict]:
    """One verdict per (metric, workload) present in both reports.

    ``worse``/``better`` when the medians differ by more than the
    metric's bound, ``same`` otherwise; ``unresolved`` when either
    side's q3 - q1 spread exceeds the bound, unless every sample of one
    side beats every sample of the other.
    """
    rows = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload, section in base["workloads"].items():
            a = section.get("metrics", {}).get(name)
            b = new["workloads"].get(workload, {}).get("metrics", {}).get(name)
            if a is None or b is None:
                continue
            change = (b["value"] - a["value"]) / a["value"]
            worse_by = change if lower else -change

            def beats(x: float, y: float) -> bool:
                return x < y if lower else x > y

            dominated = all(
                beats(x, y) for x in b["samples"] for y in a["samples"]
            ) or all(beats(y, x) for x in b["samples"] for y in a["samples"])
            spread = max(
                (s["q3"] - s["q1"]) / s["value"] for s in (a, b)
            )
            if spread > bound and not dominated:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "same"
            rows.append({
                "workload": workload, "metric": name, "base": a["value"],
                "new": b["value"], "change": change, "spread": spread,
                "bound": bound, "verdict": verdict,
            })
    return rows


def compare(base_path: str, new_path: str) -> int:
    bench = load_benchmark()
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    rows = compare_rows(base, new, bench)
    print(f"{'workload':<12} {'metric':<14} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<12} {r['metric']:<14} {r['base']:>12.6g} "
              f"{r['new']:>12.6g} {r['change']:>+8.1%} {r['spread']:>7.1%} "
              f"{r['bound']:>6.0%}  {r['verdict']}")
    for workload, section in base["workloads"].items():
        before = section.get("layers")
        after = new["workloads"].get(workload, {}).get("layers")
        if not before or not after:
            continue
        print(f"\n{workload}: per-layer self time, base -> new")
        for metric, value in before.items():
            if metric.endswith("self_s") and (value or after.get(metric)):
                delta = after.get(metric, 0.0) - value
                print(f"  {metric:<52} {value:>10.4f} {after.get(metric, 0.0):>10.4f}"
                      f" {delta:>+10.4f} s")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro package.",
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="timed seconds per workload (default: BENCHMARK.json's)",
    )
    parser.add_argument(
        "--trace", default="0",
        help="0: untraced run; 1: traced run only; PATH: both, writing "
        "a Chrome trace to PATH",
    )
    parser.add_argument("--out", help="write the report as JSON")
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASE", "NEW"),
        help="compare two reports and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2
    if args.workload is not None:
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    timed = args.trace != "1"
    traced = args.trace != "0"
    chrome = None if args.trace in ("0", "1") else args.trace

    WORK.mkdir(exist_ok=True)
    with open(WORK / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("another benchmark run holds the lock; not starting",
                  file=sys.stderr)
            return 2
        tmp = WORK / f"tmp-{os.getpid()}"
        tmp.mkdir()
        try:
            started = time.perf_counter()
            env = child_env(tmp)
            sections, parts = {}, []
            for name in names:
                part = tmp / f"{name}.trace.json" if chrome else None
                sections[name] = run_workload(
                    name, args.seed, seconds, env, timed, traced, part
                )
                if part is not None:
                    parts.append((name, part))
            if chrome:
                merge_chrome(parts, chrome)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "environment": {
            "git_revision": git_revision(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": next(iter(sections.values()))["numpy"],
            "seed": args.seed,
            "seconds": seconds,
            "total_wall_s": round(time.perf_counter() - started, 3),
            "workloads": {
                name: {
                    "passes": s.get("passes"),
                    "setup_runs": SETUP_RUNS if timed else 0,
                    "samples": BLOCKS if timed else 0,
                }
                for name, s in sections.items()
            },
        },
        "workloads": sections,
    }
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print(render(report, layer_units))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    attempted = sum(s["attempted"] for s in sections.values())
    failed = sum(s["failed"] for s in sections.values())
    if args.workload is not None:
        section = sections[args.workload]
        metrics = {
            name: {"value": s["value"], "unit": END_TO_END[name]}
            for name, s in section.get("metrics", {}).items()
        }
        for name, value in section.get("layers", {}).items():
            metrics[name] = {"value": value, "unit": layer_units[name]}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
