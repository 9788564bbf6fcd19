#!/usr/bin/env python3
"""rthv benchmark: one command for every workload, end to end and per layer.

    python3 perfbench/run.py --workload irq-observed --seed 1 --seconds 55 --trace 0

Run it from the root of the repository.  It builds perfbench/pass.exe with
dune (release profile, build directory .bench_build), then runs one pass per
process until --seconds have passed and reports medians over the passes.

Host times are normalised to the host's speed.  Every pass also times a
fixed reference computation that uses the standard library alone (pass.ml,
reference), in a process of its own right before the pass and in the pass
right after its timed region, on as many domains at once as the region
uses.  Other tenants of a shared host slow the whole machine down in spells
of minutes, by up to 2x, which no length of run averages out; the
reference slows down with it.  Each host time of a pass is scaled by REFERENCE_S over the mean of that pass's two
reference times, which gives the time on a host that runs the reference in
REFERENCE_S, and the run reports the median over passes.  The raw medians
and the reference time are printed too (metrics *_raw and reference_s).
Counts, allocation and ratios of two host times of the same run are not
normalised.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  --trace 1 reports the per-layer metrics: for --seconds it
alternates traced passes (spans are written to .perfbench_out/) with
untraced ones, then runs one count-only pass whose timings are discarded.

Every metric is printed on its own line with its unit and whether it is
host or simulated time; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 if a
correctness check fails, and 2 if the program cannot be built or a pass
crashes (then no result is printed).  perfbench/meta.json describes every
metric, the per-layer to end-to-end mapping and the held-out seeds.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ".bench_build"
OUT_DIR = ROOT / ".perfbench_out"
PASS_EXE = ROOT / BUILD_DIR / "default" / "perfbench" / "pass.exe"
# BENCHMARK.json gates irq-observed and fleet-certify; irq-stream runs the
# same core, engine and stats layers without the observability channels and
# stays available here (see perfbench/meta.json, workloads).
WORKLOADS = ("irq-stream", "fleet-certify", "irq-observed")
# IRQs per pass.  irq-observed runs a prefix of the same stream: at 1M its
# passes take 9-15 s on a shared 2-vCPU host, too few per run to be steady.
IRQS = {"irq-stream": 1_000_000, "irq-observed": 250_000}
# The corpus decode takes about a millisecond and varies from process to
# process, so fleet-certify pools set-ups from this many extra processes.
FLEET_SETUP_PROCESSES = 10
FLEET_DOMAINS = 2
WORD_BYTES = 8
PASS_TIMEOUT_S = 170
# Scale of the normalised host times, about what the reference takes on one
# domain of an unloaded 2-vCPU Xeon host.
REFERENCE_S = 0.2


class Fatal(Exception):
    pass


def speed(p):
    """Multiplier that turns the raw host times of pass [p] into times on a
    host that runs the reference computation in REFERENCE_S."""
    return REFERENCE_S * len(p["reference_s"]) / sum(p["reference_s"])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", "./perfbench/pass.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except FileNotFoundError as e:
        raise Fatal(f"cannot run dune: {e}")
    if proc.returncode != 0 or not PASS_EXE.exists():
        raise Fatal(f"build failed ({' '.join(cmd)}):\n{proc.stdout}")


def child_env():
    env = dict(os.environ)
    # Settings the library reads from the environment must not leak in.
    for var in ("RTHV_SIM_MODE", "RTHV_JOBS", "RTHV_FLIGHT_DIR", "OCAMLRUNPARAM"):
        env.pop(var, None)
    return env


def run_pass(args):
    cmd = [str(PASS_EXE), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        raise Fatal(f"pass timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise Fatal(f"pass failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Bench:
    def __init__(self, opts):
        self.opts = opts
        self.w = opts.workload
        self.bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.meta = json.loads((ROOT / "perfbench" / "meta.json").read_text())
        self.checks = {}  # name -> [passed, evaluated]
        self.irqs = 20_000 if opts.tiny else IRQS.get(self.w)
        corpus = self.meta["fleet_corpus"]
        self.fleet_seed = corpus["seed"] if opts.fleet_seed is None else opts.fleet_seed
        self.fleet_size = 1 if opts.tiny else corpus["size"]
        self.out_dir = OUT_DIR / self.w
        self.fleet_dir = self.out_dir / f"fleet-{self.fleet_seed}-{self.fleet_size}"
        self.corpus_md5 = None

    def check(self, name, ok):
        tally = self.checks.setdefault(name, [0, 0])
        tally[0] += bool(ok)
        tally[1] += 1

    def pass_args(self, mode):
        args = ["--workload", self.w, "--mode", mode, "--out-dir", str(self.out_dir)]
        if self.w == "fleet-certify":
            return args + ["--fleet-dir", str(self.fleet_dir)]
        return args + ["--seed", str(self.opts.seed), "--irqs", str(self.irqs)]

    def prepare(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for f in self.out_dir.glob("spans-*.json"):
            f.unlink()
        if self.w != "fleet-certify":
            return
        # Benchmark preparation, not timed: write the corpus afresh.
        if self.fleet_dir.exists():
            for f in self.fleet_dir.iterdir():
                f.unlink()
        r = run_pass(["--workload", self.w, "--mode", "prepare",
                      "--fleet-dir", str(self.fleet_dir),
                      "--fleet-seed", str(self.fleet_seed),
                      "--fleet-size", str(self.fleet_size)])
        self.corpus_md5 = r["input_md5"]
        print(f"input fleet_seed={self.fleet_seed} configs={r['ops']} corpus_md5={r['input_md5']}")
        for name, digest in r["values"]["configs"]:
            print(f"input config {name} md5={digest}")

    def one(self, mode):
        if mode == "setup":
            r = run_pass(self.pass_args(mode))
        else:
            # The pass times the reference after its timed region; the one
            # before runs in a process of its own, so that it leaves the
            # pass's heap as a user's run finds it.
            domains = FLEET_DOMAINS if (self.w, mode) == ("fleet-certify", "plain") else 1
            before = run_pass(["--mode", "reference", "--domains", str(domains)])
            r = run_pass(self.pass_args(mode))
            r["reference_s"] = before["reference_s"] + r["reference_s"]
        for name, ok in r["checks"].items():
            self.check(f"{mode}.{name}", ok)
        return r

    def repeat(self, *modes):
        """Rounds of one pass per mode for about --seconds: another round
        starts only if it should end less than half a round past the
        deadline.  Returns the passes of each mode and the time taken."""
        start = time.monotonic()
        passes = {m: [] for m in modes}
        rounds = 0
        while True:
            for m in modes:
                passes[m].append(self.one(m))
            rounds += 1
            elapsed = time.monotonic() - start
            if elapsed + 0.5 * elapsed / rounds >= self.opts.seconds:
                return [passes[m] for m in modes], elapsed

    def setup_samples(self, passes):
        """(set-up time, speed) pairs.  On fleet-certify they come from
        set-up-only processes, whose single-domain set-up is scaled by a
        single-domain reference, not by the two-domain one of the batch."""
        if self.w == "fleet-certify":
            passes = [self.one("setup") for _ in range(FLEET_SETUP_PROCESSES)]
        return [(s, speed(p)) for p in passes for s in p["setup_s"]]

    def same_across(self, label, passes, key):
        values = {p[key] for p in passes}
        self.check(f"{label}.{key}_identical", len(values) == 1)

    def provenance(self, passes):
        self.same_across("passes", passes, "input_md5")
        self.same_across("passes", passes, "digest")
        md5 = passes[0]["input_md5"]
        if self.w == "fleet-certify":
            self.check("fleet.decoded_corpus_matches_generated", md5 == self.corpus_md5)
        else:
            print(f"input seed={self.opts.seed} irqs={self.irqs} interarrivals_md5={md5}")

    def emit(self, name, value, unit, base, note=""):
        print(f"metric {name} {value!r} {unit} {base}{'  ' + note if note else ''}")

    def end_to_end(self, passes):
        def completed(p):
            return p["ops"] - p["failed"]

        setups = self.setup_samples(passes)
        raw = {
            "setup_s": median([s for s, _ in setups]),
            "wall_s": median([p["wall_s"] for p in passes]),
            "ops_per_s": median([completed(p) / p["main_s"] for p in passes]),
        }
        vals = {
            "setup_s": median([s * k for s, k in setups]),
            "wall_s": median([p["wall_s"] * speed(p) for p in passes]),
            "ops_per_s": median([completed(p) / p["main_s"] / speed(p) for p in passes]),
            "alloc_words_per_op": median([p["alloc_words"] / p["ops"] for p in passes]),
            "peak_heap_mb": median([p["peak_heap_words"] * WORD_BYTES / 2**20 for p in passes]),
        }
        attempted = sum(p["ops"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        info = self.meta["end_to_end"]
        for name, v in vals.items():
            self.emit(name, v, info[name]["unit"], info[name]["base"])
        self.emit("reference_s", median([t for p in passes for t in p["reference_s"]]), "s",
                  "host", f"median reference time; normalised = raw x {REFERENCE_S} / reference")
        for name, v in raw.items():
            self.emit(f"{name}_raw", v, info[name]["unit"], "host")
        self.emit("failed_frac", failed / attempted, "ratio", "count",
                  f"({failed} of {attempted} attempted)")
        if self.w != "fleet-certify":
            sims = [json.dumps(p["values"]["sim"], sort_keys=True) for p in passes]
            self.check("passes.simulated_metrics_identical", len(set(sims)) == 1)
            sim = passes[0]["values"]["sim"]
            ref = self.meta["paper_reference"]
            n = sim["n"]
            self.emit("irq_mean_us", sim["irq_mean_us"], "us", "simulated",
                      f"n={n}; paper Fig. 6b ~{ref['irq_mean_us']} us; model not validated against hardware")
            self.emit("irq_p50_us", sim["irq_p50_us"], "us", "simulated", f"n={n}")
            self.emit("irq_p9999_us", sim["irq_p9999_us"], "us", "simulated",
                      f"n={n}; {n - math.ceil(0.9999 * n)} samples beyond")
            print(f"classes direct={sim['direct']} interposed={sim['interposed']} "
                  f"delayed={sim['delayed']} max_us={sim['irq_max_us']!r}")
        if self.w == "irq-observed":
            self.emit("query_s", median([p["values"]["query_s"] * speed(p) for p in passes]),
                      "s", info["query_s"]["base"])
            self.emit("store_bytes_per_event",
                      median([p["values"]["store_bytes_per_event"] for p in passes]),
                      "bytes", "host")
        return vals, attempted, failed

    def per_layer(self, plain, traced, count):
        """Per-layer values by source; a layer this workload does not call
        reads 0, and one it does call must have been measured."""
        info = self.meta["per_layer"]
        vals = {}
        for name, m in info.items():
            src = m["source"]
            if src == "traced":
                host_time = m["unit"] in ("s", "ns")
                got = [p["values"][name] * (speed(p) if host_time else 1)
                       for p in traced if name in p["values"]]
                v = median(got) if got else None
            elif src == "count":
                v = count["values"].get(name)
            elif src == "plain":
                v = (plain[0]["major_collections"] if name == "gc.major_collections"
                     else plain[0]["values"].get(name))
            elif name == "trace.overhead":
                v = median([p["wall_s"] for p in traced]) / median([p["wall_s"] for p in plain])
            elif name == "par.efficiency":
                v = None
                if self.w == "fleet-certify":
                    certify = median([p["values"]["check.certify_s"] for p in traced])
                    batch = median([p["values"]["certify_batch_s"] for p in plain])
                    v = certify / (FLEET_DOMAINS * batch)
            else:
                raise Fatal(f"unknown source {src} for {name}")
            if v is None:
                if self.w in m["on"]:
                    raise Fatal(f"{name} was not measured on {self.w}")
                v = 0.0
            vals[name] = v
        self.check("trace.coverage_at_least_0.9", vals["trace.coverage"] >= 0.9)
        self.check("trace.store_lost_no_events", vals["trace.store_lost_events"] == 0)
        for name, v in vals.items():
            self.emit(name, v, info[name]["unit"], info[name]["source"])
        return vals

    def run(self):
        opts = self.opts
        print(f"perfbench workload={self.w} seed={opts.seed} seconds={opts.seconds} "
              f"trace={opts.trace}{' tiny' if opts.tiny else ''}")
        self.prepare()
        if opts.trace == 0:
            (passes,), elapsed = self.repeat("plain")
            print(f"passes plain={len(passes)} measured_s={elapsed:.3f} "
                  f"wall_s={[round(p['wall_s'], 4) for p in passes]}")
            self.provenance(passes)
            vals, attempted, failed = self.end_to_end(passes)
            names = [m["name"] for m in self.bench["end_to_end"]]
        else:
            # Traced and untraced passes alternate, so trace.overhead compares
            # passes made under the same load.
            (traced, plain), elapsed = self.repeat("traced", "plain")
            count = self.one("count")
            print(f"passes traced={len(traced)} plain={len(plain)} count=1 "
                  f"measured_s={elapsed:.3f}")
            # Traced, untraced and count-only passes must compute the same
            # stats and summary (irq-*) or byte-identical certificates
            # (fleet-certify: 2-domain batch against 1-domain stages).
            everything = [*traced, *plain, count]
            self.provenance(everything)
            self.print_spans(traced[-1])
            vals = self.per_layer(plain, traced, count)
            attempted = sum(p["ops"] for p in everything)
            failed = sum(p["failed"] for p in everything)
            names = [m["name"] for m in self.bench["per_layer"]]
        for name, (ok, n) in self.checks.items():
            print(f"check {name} {'ok' if ok == n else 'FAILED'} ({ok}/{n})")
        correct = all(ok == n for ok, n in self.checks.values())
        if not correct:
            # A failed check counts every op of the run as failed.
            failed = attempted
        units = {m["name"]: m["unit"] for m in
                 self.bench["end_to_end"] + self.bench["per_layer"]}
        metrics = {n: {"value": vals[n], "unit": units[n]} for n in names}
        for n, m in metrics.items():
            if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                raise Fatal(f"metric {n} is not a finite number: {m['value']!r}")
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1

    def print_spans(self, traced_pass):
        path = traced_pass["values"]["spans_file"]
        spans = json.loads(Path(path).read_text())
        root = next(s for s in spans if s["parent"] is None)
        total = root["end_s"] - root["start_s"]
        print(f"spans {path} traced_wall_s={total!r}")
        by_name = {}
        for s in spans:
            if s["parent"] == root["id"] or s["name"].startswith("check."):
                by_name.setdefault(s["name"], []).append(s["end_s"] - s["start_s"])
        for name, ds in sorted(by_name.items(), key=lambda kv: -sum(kv[1])):
            print(f"span {name} calls={len(ds)} total_s={sum(ds):.6f} share={sum(ds) / total:.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="20,000 IRQs and a 1-config corpus (smoke test)")
    ap.add_argument("--fleet-seed", type=int, default=None,
                    help="corpus seed for fleet-certify (default: meta.json fleet_corpus.seed)")
    opts = ap.parse_args()
    try:
        build()
        return Bench(opts).run()
    except Fatal as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
