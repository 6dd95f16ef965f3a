"""Repository benchmark: OLSR grid, DYMO flows and a replayed per-message path.

Run from the repository root::

    python3 perfbench/run.py --workload olsr_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass, the same pass again under :class:`layers.LayerTracer`, and
a small profiled pass whose traced counts must equal the program's own
counters, then prints the per-layer metrics.  The last stdout line is the
result object; the line before it is the run's stamp.  Exit status is 0
when the run completed (whether or not its outputs were correct), 2 when
the source tree is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("olsr_grid", "dymo_flows", "olsr_replay")


def stamp(seed: int, load_before) -> dict:
    sha = None
    # Only this checkout's own repository: git would otherwise search the
    # parent directories.
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    return {
        "seed": seed, "cores": os.cpu_count(),
        "python": platform.python_version(),
        "load_before": load_before, "load_after": os.getloadavg(),
        "git_sha": sha, "src_sha256": tree.hexdigest()[:16],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(one_pass, start: float, seconds: float) -> list:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(one_pass())
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return passes


def run_sim(name: str, seed: int, seconds: float) -> dict:
    """Setups, then sim passes for ``seconds``, then the shadow replay."""
    cfg = {"olsr_grid": W.OLSR_GRID, "dymo_flows": W.DYMO_FLOWS}[name]
    pass_fn, deploy, mono = SIM_WORKLOADS[name]
    start = time.perf_counter()
    setups = W.timed_setups(lambda: W.build_grid(seed, cfg["nodes"]), deploy, cfg,
                            W.EXTRA_SETUPS)
    rss = []

    def one_pass():
        result = pass_fn(seed, cfg)
        result.pop("sims"), result.pop("kits")
        rss.append(peak_rss_mb())
        return result

    passes = repeat(one_pass, start, seconds)
    first = passes[0]
    shadow = W.replay(first["stream"], seed, deploy, mono, cfg)
    metrics = dict(first["metrics"])
    metrics.update(W.message_metrics(shadow["mk"], shadow["mono"]))
    metrics["sim_s_per_s"] = statistics.median(p["sim_s_per_s"] for p in passes)
    metrics["setup_s"] = statistics.median(setups + [p["setup_s"] for p in passes])
    # The first pass's peak: later passes only add result lists.
    metrics["peak_rss_mb"] = rss[0]
    problems = list(first["problems"])
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes with the same seed disagree")
    return {
        "metrics": metrics,
        "attempted": sum(p["attempted"] for p in passes) + shadow["messages"],
        "failed": sum(p["failed"] for p in passes) + shadow["failed"],
        "problems": problems,
        "samples": {"passes": len(passes), "replayed": shadow["messages"],
                    "timed": len(shadow["mk"])},
    }


def record(seed: int, cfg: dict):
    """Record the olsrd stream and guard it: same seed same bytes, new seed new bytes."""
    stream, ids, links = W.record_olsrd(seed, cfg["nodes"], cfg["horizon"])
    prefix = cfg["check_prefix"]
    again = W.record_olsrd(seed, cfg["nodes"], prefix)[0]
    other = W.record_olsrd(seed + 1, cfg["nodes"], prefix)[0]
    problems = []
    if W.stream_digest(again) != W.stream_digest(stream, until=prefix):
        problems.append("same seed recorded a different olsrd stream")
    if W.stream_digest(other) == W.stream_digest(stream, until=prefix):
        problems.append("a different seed recorded the same olsrd stream")
    return stream, ids, links, problems


def run_replay(seed: int, seconds: float) -> dict:
    cfg = W.OLSR_REPLAY
    stream, ids, links, problems = record(seed, cfg)
    start = time.perf_counter()
    setups = W.timed_setups(lambda: (W.build_linkless(seed, ids), ids), W.deploy_olsr,
                            cfg, W.EXTRA_SETUPS)
    rss = []

    def one_pass():
        result = W.olsr_replay_pass(seed, stream, links, cfg)
        for key in ("sims", "kits", "msim", "osim"):
            result.pop(key)
        rss.append(peak_rss_mb())
        return result

    passes = repeat(one_pass, start, seconds)
    mk = [t for p in passes for t in p["mk"]]
    mono = [t for p in passes for t in p["mono"]]
    metrics = dict(passes[0]["metrics"])
    metrics.update(W.message_metrics(mk, mono))
    metrics["sim_s_per_s"] = statistics.median(p["sim_s_per_s"] for p in passes)
    metrics["setup_s"] = statistics.median(setups + [p["setup_s"] for p in passes])
    metrics["peak_rss_mb"] = rss[0]
    problems += passes[0]["problems"]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("replay passes with the same seed disagree")
    return {
        "metrics": metrics,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": problems,
        "samples": {"passes": len(passes), "replayed": len(stream) * len(passes),
                    "timed": len(mk)},
    }


def run_traced(name: str, seed: int) -> dict:
    """Untraced pass, traced pass, overhead, and the small cross-check pass."""
    if name == "olsr_replay":
        cfg = W.OLSR_REPLAY
        stream, _ids, links, problems = record(seed, cfg)

        def one_pass(cfg):
            return W.olsr_replay_pass(seed, stream, links, cfg), None

        small_cfg = dict(W.SMALL[name], profile=True)
        small_stream, _ids, small_links = W.record_olsrd(
            seed, small_cfg["nodes"], small_cfg["horizon"])

        def small_pass():
            return W.olsr_replay_pass(seed, small_stream, small_links, small_cfg)
    else:
        cfg = {"olsr_grid": W.OLSR_GRID, "dymo_flows": W.DYMO_FLOWS}[name]
        pass_fn, deploy, mono = SIM_WORKLOADS[name]
        problems = []

        def one_pass(cfg):
            result = pass_fn(seed, cfg)
            return result, (result["stream"], deploy, mono)

        small_cfg = dict(W.SMALL[name], profile=True)

        def small_pass():
            return pass_fn(seed, small_cfg)

    untraced, _ = one_pass(cfg)
    problems += untraced["problems"]
    base_rate = untraced["sim_s_per_s"]
    del untraced
    tracer = L.LayerTracer()
    with tracer:
        traced, shadow = one_pass(cfg)
    metrics = tracer.layer_metrics()
    if shadow is not None:
        # The comparator runs only in the shadow replay; trace it apart so
        # the simulation's layer figures stay those of the simulation.
        comparator = L.LayerTracer()
        with comparator:
            W.replay(shadow[0], seed, shadow[1], shadow[2], cfg)
        metrics["olsrd.us_per_msg"] = comparator.layer_metrics()["olsrd.us_per_msg"]
    metrics["trace.overhead_ratio"] = traced["sim_s_per_s"] / base_rate
    metrics["trace.spans_dropped"] = tracer.dropped
    problems += traced["problems"]
    if name == "olsr_replay" and metrics["olsr.tc_fresh_share"] <= 0:
        problems.append("no replayed TC was fresh (olsr.tc_fresh_share == 0)")
    tracer.write_chrome(OUT / f"{name}-seed{seed}.trace.json.gz")

    checker = L.LayerTracer(capacity=0)
    with checker:
        small = small_pass()
    problems += small["problems"]
    profiled = [sim for sim in small["sims"] if sim.obs.profiler is not None]
    problems += L.cross_check(checker, profiled, small["kits"])
    return {
        "metrics": metrics,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "problems": problems,
        "samples": {"spans": len(tracer.span_start), "cross_checked_units":
                    len(checker.unit_counts())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    _import_program()
    if args.trace:
        outcome = run_traced(args.workload, args.seed)
    elif args.workload == "olsr_replay":
        outcome = run_replay(args.seed, args.seconds)
    else:
        outcome = run_sim(args.workload, args.seed, args.seconds)
    metrics = outcome["metrics"]
    # BENCHMARK.json declares the metric names and units; emit exactly those.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not both "
              "measured and declared", file=sys.stderr)
        return 1
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    info = dict(stamp(args.seed, load_before), workload=args.workload,
                trace=args.trace, samples=outcome["samples"],
                problems=outcome["problems"])
    print(json.dumps({"stamp": info}))
    for problem in outcome["problems"]:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


def _import_program() -> None:
    """Import the program from this checkout's ``src`` (not an installed copy)."""
    global W, L, SIM_WORKLOADS
    sys.path.insert(0, str(ROOT / "src"))
    import layers as L  # noqa: E402  (needs ``src`` on the path)
    import workloads as W  # noqa: E402

    SIM_WORKLOADS = {
        "olsr_grid": (W.olsr_grid_pass, W.deploy_olsr, W.deploy_olsrd),
        "dymo_flows": (W.dymo_flows_pass, W.deploy_dymo, W.deploy_dymoum),
    }


if __name__ == "__main__":
    sys.exit(main())
