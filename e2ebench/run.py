#!/usr/bin/env python3
"""End-to-end dissemination benchmark for the MNP simulator.

Builds e2ebench/ (and with it the repo's libraries) under .bench_build/,
then runs one workload as a series of complete disseminations, each in its
own mnp_e2e child process, cycling over a few simulation seeds derived
from --seed, and checks every one of them:

  * every non-base node's EEPROM holds the program image byte for byte;
  * the benchmark's own assembly matches harness::run_experiment on the
    same config and seed (completion time, transmissions, deliveries,
    collisions, verified count, messages and radio time per node);
  * the traced run matches the untraced one on those same outcomes;
  * repeated runs of one seed give identical simulated outcomes;
  * the generated churn scenario is byte-identical when regenerated;
  * in the traced run, the step and loop-check spans cover the event loop.

Usage:
  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --smoke          # small grids, all workloads

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). BENCHMARK.md lists every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD_DIR / "mnp_e2e"

# Workloads, each with the number K of simulation seeds an invocation runs:
# --seed S runs the seeds S*16 + 0..K-1, so the simulated outcomes are a
# mean over K seeds and wall_s a median over runs of all of them. K is
# smallest where one run takes longest.
SIM_SEEDS = {"mnp_static_1600": 3, "deluge_static_900": 5,
             "mnp_churn_mobile_900": 5}
WORKLOADS = tuple(SIM_SEEDS)
# The workloads BENCHMARK.json lists. deluge_static_900 stays runnable and
# in --smoke, but is not benchmarked: on a shared host the spread of its
# wall_s over ten seeds passed the 0.25 bound (BENCHMARK.md, "Host noise").
BENCHMARKED = ("mnp_static_1600", "mnp_churn_mobile_900")
SEED_STRIDE = 16

# Simulated outcomes and counts that every run of one seed must reproduce,
# and that the reference and traced runs must match.
OUTCOME_KEYS = (
    "sim_completion_s", "sim_msgs_per_node", "sim_active_radio_s",
    "transmissions", "deliveries", "collisions", "verified",
    "scenario_injected", "scenario_digest",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_completion_s": "s",
    "sim_msgs_per_node": "count",
    "sim_active_radio_s": "s",
    "verified_node_ratio": "ratio",
}

# Per-layer metrics taken as the median over the traced runs, by unit.
TRACED_UNITS = {
    "sim.events": "count",
    "net.channel.tx_begin_steps": "count",
    "net.channel.tx_begin_self_s": "s",
    "net.channel.rx_end_steps": "count",
    "net.channel.rx_end_self_s": "s",
    "net.channel.cache_repairs": "count",
    "net.channel.cache_invalidations": "count",
    "net.link_model.calls": "count",
    "net.link_model.s": "s",
    "net.mac.sends": "count",
    "net.mac.drops": "count",
    "net.mac.send_s": "s",
    "net.mac.queue_wait_sim_ms_p50": "ms",
    "net.mac.queue_wait_sim_ms_p99": "ms",
    "protocol.on_packet_calls": "count",
    "protocol.on_packet_s": "s",
    "protocol.timer_steps": "count",
    "protocol.timer_step_self_s": "s",
    "node.stats.calls": "count",
    "node.stats.s": "s",
    "storage.eeprom.writes": "count",
    "storage.eeprom.reads": "count",
    "storage.eeprom.bytes_written": "B",
    "scenario.injected": "count",
    "scenario.dead_nodes": "count",
    "harness.setup.topology_s": "s",
    "harness.setup.network_s": "s",
    "harness.setup.install_s": "s",
    "harness.setup_rss_mb": "MB",
    "harness.loop_s": "s",
    "harness.loop_check_s": "s",
    "harness.verify_s": "s",
}
DERIVED_UNITS = {
    "sim.events_per_s": "1/s",
    "sim.sim_s_per_host_s": "s/s",
    "net.channel.transmissions": "count",
    "net.channel.deliveries": "count",
    "net.channel.collisions": "count",
    "net.channel.deliveries_per_tx": "ratio",
    "net.channel.delivery_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Identity check: loop-check plus step spans against the traced loop time.
SPAN_COVERAGE_TOLERANCE = 0.01
# Every child must finish this long after the build, so that a hung run
# still ends the invocation within three minutes.
RUN_BUDGET_S = 170
DEADLINE = float("inf")


class BenchError(Exception):
    """A build or child-process failure: no result can be printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no mnp sources at {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "mnp_e2e",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def child(args):
    """Runs mnp_e2e with `args`; returns its stdout."""
    timeout = max(1.0, DEADLINE - time.monotonic())
    proc = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"mnp_e2e {' '.join(args)} exited {proc.returncode}:"
                         f" {proc.stderr.strip()}")
    return proc.stdout


def fnv1a_hex(text):
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


class Run:
    """One workload at one benchmark seed: its child runs, the outcome of
    each simulation seed, and the gate failures."""

    def __init__(self, workload, seed, smoke):
        self.workload = workload
        self.smoke = smoke
        self.sim_seeds = [seed * SEED_STRIDE + i
                          for i in range(SIM_SEEDS[workload])]
        self.failures = []
        self.plain = []
        self.traced = []
        self.outcome = {}  # simulation seed -> first run's outcome
        self.digests = {}  # simulation seed -> scenario digest

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def args(self, sim_seed):
        return ["--workload", self.workload, "--seed", str(sim_seed),
                *(["--smoke"] if self.smoke else [])]

    def scenarios(self):
        for sim_seed in self.sim_seeds:
            first = child(["scenario", *self.args(sim_seed)])
            second = child(["scenario", *self.args(sim_seed)])
            self.check(first == second, f"seed {sim_seed}: scenario text "
                       "differs between generations")
            self.digests[sim_seed] = fnv1a_hex(first)

    def run(self, mode, sim_seed):
        out = json.loads(child(["run", *self.args(sim_seed), "--mode", mode])
                         .strip().splitlines()[-1])
        what = f"{mode} seed {sim_seed}"
        self.check(out["scenario_digest"] == self.digests[sim_seed],
                   f"{what}: scenario digest {out['scenario_digest']} != "
                   f"{self.digests[sim_seed]}")
        # Every run of a seed, and run_experiment on it, must reproduce the
        # first run's outcome.
        first = self.outcome.setdefault(sim_seed, out)
        for key in OUTCOME_KEYS:
            self.check(out[key] == first[key],
                       f"{what}: {key} {out[key]} != {first[key]}")
        if mode == "reference":
            return out
        self.check(out["verified_non_base"] == out["non_base"],
                   f"{what}: {out['non_base'] - out['verified_non_base']} of "
                   f"{out['non_base']} non-base images not byte-exact")
        if mode == "traced":
            covered = out["trace.step_span_s"] + out["harness.loop_check_s"]
            self.check(
                abs(covered - out["harness.loop_s"]) <=
                SPAN_COVERAGE_TOLERANCE * out["harness.loop_s"],
                f"{what}: spans cover {covered} s of a "
                f"{out['harness.loop_s']} s loop")
            self.traced.append(out)
        else:
            self.plain.append(out)
        log(f"{self.workload} {what}: wall_s={out['wall_s']:.3f} "
            f"setup_s={out['setup_s']:.3f}")
        return out

    def attempted(self):
        return sum(r["non_base"] for r in self.plain + self.traced)

    def failed(self):
        return sum(r["non_base"] - r["verified_non_base"]
                   for r in self.plain + self.traced)


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end_metrics(run):
    outcomes = list(run.outcome.values())
    values = {
        "wall_s": median_of(run.plain, "wall_s"),
        "setup_s": median_of(run.plain, "setup_s"),
        "peak_rss_mb": median_of(run.plain, "peak_rss_mb"),
        "verified_node_ratio": (run.attempted() - run.failed()) /
                               run.attempted(),
    }
    for key in ("sim_completion_s", "sim_msgs_per_node", "sim_active_radio_s"):
        values[key] = statistics.mean(o[key] for o in outcomes)
    return {k: {"value": values[k], "unit": END_TO_END_UNITS[k]}
            for k in END_TO_END_UNITS}


def per_layer_metrics(run):
    traced = run.traced
    for r in traced:
        tx, rx, col = r["transmissions"], r["deliveries"], r["collisions"]
        r.update({
            "sim.events_per_s": r["sim.events"] / r["harness.loop_s"],
            "sim.sim_s_per_host_s": r["sim.end_s"] / r["harness.loop_s"],
            "net.channel.transmissions": tx,
            "net.channel.deliveries": rx,
            "net.channel.collisions": col,
            "net.channel.deliveries_per_tx": rx / tx,
            "net.channel.delivery_ratio": rx / (rx + col),
        })
    units = {**TRACED_UNITS, **DERIVED_UNITS}
    values = {k: median_of(traced, k) for k in units
              if k != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = (median_of(traced, "wall_s") /
                                      median_of(run.plain, "wall_s"))
    return {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}


def bench(workload, seed, seconds, trace, smoke):
    """Runs rounds of child runs for about `seconds`, then the
    run_experiment cross-check. Returns the Run."""
    run = Run(workload, seed, smoke)
    run.scenarios()
    # With --trace 1 a round is an untraced and a traced run of one seed,
    # so both see the same machine state; the untraced ones give
    # trace.overhead_ratio. Without it, the first rounds cover every
    # simulation seed once.
    modes = ("plain", "traced") if trace else ("plain",)
    min_rounds = 1 if trace else len(run.sim_seeds)
    start = time.monotonic()
    rounds = 0
    while True:
        sim_seed = run.sim_seeds[rounds % len(run.sim_seeds)]
        for mode in modes:
            run.run(mode, sim_seed)
        rounds += 1
        elapsed = time.monotonic() - start
        # Stop once another round would overrun the measuring window.
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            break
    run.run("reference", run.sim_seeds[0])
    return run


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main_bench(args):
    run = bench(args.workload, args.seed, args.seconds, args.trace, False)
    for failure in run.failures:
        log(f"CHECK FAILED: {failure}")
    metrics = per_layer_metrics(run) if args.trace else end_to_end_metrics(run)
    print(f"workload={args.workload} seed={args.seed} "
          f"sim_seeds={','.join(map(str, run.sim_seeds))} "
          f"scenario_digests={','.join(run.digests.values())} "
          f"plain_runs={len(run.plain)} traced_runs={len(run.traced)}")
    correct = not run.failures
    print(result_line(correct, run.attempted(), run.failed(), metrics))
    return 0 if correct else 1


def manifest_failures():
    """Differences between BENCHMARK.json and the metrics this script
    reports, by name and unit."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for section, units in (("end_to_end", END_TO_END_UNITS),
                           ("per_layer", {**TRACED_UNITS, **DERIVED_UNITS})):
        listed = {m["name"]: m["unit"] for m in manifest[section]}
        if listed != units:
            diff = sorted(set(listed.items()) ^ set(units.items()))
            failures.append(
                f"BENCHMARK.json {section} differs from run.py: {diff}")
    if [w["name"] for w in manifest["workloads"]] != list(BENCHMARKED):
        failures.append("BENCHMARK.json workloads differ from run.py")
    return failures


def main_smoke(args):
    """Small grids of every workload, traced and untraced, full gate."""
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    failures = manifest_failures()
    for workload in workloads:
        run = bench(workload, args.seed, 0, True, True)
        attempted += run.attempted()
        failed += run.failed()
        failures += [f"{workload}: {f}" for f in run.failures]
        first = run.plain[0]
        print(f"{workload}: nodes={first['nodes']} "
              f"wall_s={first['wall_s']:.3f} "
              f"sim_completion_s={first['sim_completion_s']:.1f} "
              f"scenario_digest={run.digests[run.sim_seeds[0]]} "
              f"{'ok' if not run.failures else 'FAILED'}")
    for failure in failures:
        log(f"CHECK FAILED: {failure}")
    print(result_line(not failures, attempted, failed, {}))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small grids of every workload, full gate")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**59:
        parser.error("--seed must be in [0, 2^59)")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    global DEADLINE
    try:
        build()
        DEADLINE = time.monotonic() + RUN_BUDGET_S
        return main_smoke(args) if args.smoke else main_bench(args)
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError, KeyError) as err:
        log(f"e2ebench: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
