#!/usr/bin/env python3
"""Campaign benchmark for racesim.

Runs one workload -- a whole `racesim tune` campaign -- repeatedly for
`--seconds` seconds and prints its metrics. Run it from the repository
root:

    python3 perfbench/run.py --workload a53-long --seed 1 --seconds 25 --trace 0

`--trace 0` times the campaign through the `racesim` CLI, the user's entry
point, and prints the end-to-end metrics. `--trace 1` alternates the same
campaign through the CLI and through `perfbench-tracer`, which assembles
the campaign from the library API with a timing adapter at every layer,
and prints the per-layer metrics plus the tracing overhead.

Every run checks its outputs: each campaign's evaluation count, tuned
configuration and best cost must equal the reference in
`perfbench/expected.json` (or, for a tuner seed not recorded there, the
same campaign run unstaged and in-process through the library). The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.

The reference in every CPI-error figure is the synthetic `ReferenceBoard`
model of the Firefly boards, not real hardware.

Both programs are built from source with `cargo build --release
--offline`, into `$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACER_MANIFEST = os.path.join(HERE, "tracer", "Cargo.toml")
EXPECTED = os.path.join(HERE, "expected.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# racesim's own default tuner seed (TunerSettings::default().seed).
DEFAULT_TUNER_SEED = 0xBADCAB1E

# The three campaigns. `segments > 1` stages the campaign as that many
# resumed processes: segment i runs with `--max-iterations i` and the last
# runs to completion, with `--checkpoint` and `--resume` on every segment.
# The two simulation-bound campaigns evaluate on one thread: on a 2-vCPU
# host, a second busy thread leaves no core for the host's own work, and
# its wall time swings with every neighbour (see README.md).
WORKLOADS = {
    "a53-long": dict(core="a53", scale=64, budget=3000, threads=1, workers=0,
                     segments=1, journal=False),
    "a72-staged": dict(core="a72", scale=128, budget=3000, threads=1, workers=0,
                       segments=7, journal=True),
    "a53-dist": dict(core="a53", scale=2048, budget=1000, threads=2, workers=2,
                     segments=1, journal=False),
}

# Tiny versions of the same shapes, for the smoke test.
SMOKE = {
    "a53-long": dict(scale=16384, budget=150),
    "a72-staged": dict(scale=16384, budget=200, segments=3),
    "a53-dist": dict(scale=32768, budget=150),
}

BEST_LINE = re.compile(
    r"best cost: ([0-9.]+)% mean CPI error \((\d+) evaluations, (\d+) retries, "
    r"(\d+) configurations failed\)")


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def workload_params(name, smoke):
    w = dict(WORKLOADS[name])
    if smoke:
        w.update(SMOKE[name])
    nproc = os.cpu_count() or 1
    w["threads"] = min(w["threads"], nproc)
    w["workers"] = min(w["workers"], nproc)
    return w


# --------------------------------------------------------------------------
# Building


def target_dir():
    """Cargo's target directory, absolute: a relative `CARGO_TARGET_DIR` is
    taken relative to the checkout root, where cargo runs."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds `racesim` and `perfbench-tracer`; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
        raise BenchError(f"{ROOT} is not a racesim checkout (no Cargo.toml or crates/cli)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, package in ((os.path.join(ROOT, "Cargo.toml"), ["-p", "racesim-cli"]),
                              (TRACER_MANIFEST, [])):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + package
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "racesim"), os.path.join(release, "perfbench-tracer")


# --------------------------------------------------------------------------
# Running processes


def run_process(argv, cwd, announce=None):
    """Runs one process to completion and measures it.

    Returns wall time, the time at which a stdout line starting with
    `announce` arrived (None if it never did), user+sys CPU of the process
    and every child it reaped, its peak resident set (the largest of any
    single one of those processes, as `wait4` reports it), and its stdout.
    """
    err_path = os.path.join(cwd, "stderr.txt")
    with open(err_path, "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=err,
                             stdin=subprocess.DEVNULL, text=True)
        lines, seen = [], None
        for line in p.stdout:
            if seen is None and announce and line.startswith(announce):
                seen = time.perf_counter() - t0
            lines.append(line)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    if p.returncode != 0:
        with open(err_path, errors="replace") as f:
            tail = f.read()[-2000:]
        raise BenchError(f"{' '.join(argv)} exited with {p.returncode}:\n{tail}")
    return dict(wall=wall, announce=seen, cpu=usage.ru_utime + usage.ru_stime,
                rss_mib=usage.ru_maxrss / 1024.0, stdout="".join(lines))


def journal_resume_s(journal, offset):
    """Checkpoint-load time of the segment whose journal lines start at
    `offset`: from its `campaign_start` stamp to its `resume` stamp."""
    start = resume = None
    with open(journal, "rb") as f:
        f.seek(offset)
        for raw in f:
            ev = json.loads(raw)
            if ev.get("ev") == "campaign_start" and start is None:
                start = ev["t"]
            elif ev.get("ev") == "resume" and start is not None:
                resume = ev["t"]
                break
    return 0.0 if resume is None else (resume - start) / 1e6


def cli_campaign(racesim, w, tuner_seed, workdir):
    """One campaign through the CLI, as its segments. Returns its metrics
    and outputs."""
    os.makedirs(workdir)
    checkpoint = os.path.join(workdir, "checkpoint.txt")
    journal = os.path.join(workdir, "journal.jsonl")
    tuned = os.path.join(workdir, "tuned.cfg")
    tune_s = setup_s = cpu_s = rss = 0.0
    last = None
    for seg in range(1, w["segments"] + 1):
        argv = [racesim, "tune", "--core", w["core"], "--scale", str(w["scale"]),
                "--budget", str(w["budget"]), "--threads", str(w["threads"]),
                "--seed", str(tuner_seed)]
        if w["workers"]:
            argv += ["--workers", str(w["workers"])]
        if w["segments"] > 1:
            argv += ["--checkpoint", checkpoint, "--resume", checkpoint]
            if seg < w["segments"]:
                argv += ["--max-iterations", str(seg)]
        if w["journal"]:
            argv += ["--telemetry", journal]
        if seg == w["segments"]:
            argv += ["--out", tuned]
        offset = os.path.getsize(journal) if os.path.exists(journal) else 0
        p = run_process(argv, workdir, announce="tuning the ")
        if p["announce"] is None:
            raise BenchError(f"{' '.join(argv)} never announced the race")
        setup = p["announce"]
        if w["journal"]:
            setup += journal_resume_s(journal, offset)
        tune_s += p["wall"]
        setup_s += setup
        cpu_s += p["cpu"]
        rss = max(rss, p["rss_mib"])
        last = p["stdout"]
    m = BEST_LINE.search(last)
    if not m:
        raise BenchError("the last segment printed no best-cost line")
    with open(tuned, "rb") as f:
        config = f.read()
    evals = int(m.group(2))
    return dict(
        tune_s=tune_s, setup_s=setup_s, cpu_s=cpu_s, peak_rss_mb=rss,
        evals_per_s=evals / (tune_s - setup_s),
        evals=evals, failed=int(m.group(3)) + int(m.group(4)),
        best_line=m.group(1), config_sha256=hashlib.sha256(config).hexdigest(),
        config=config, tuned=tuned)


def tracer_json(argv, cwd):
    p = run_process(argv, cwd)
    return json.loads(p["stdout"].strip().splitlines()[-1])


def traced_campaign(tracer, racesim, w, tuner_seed, workdir, segments=None, workers=None):
    """One campaign through the library with timing adapters. With
    `segments=1, workers=0` it is the unstaged in-process reference."""
    os.makedirs(workdir)
    segments = w["segments"] if segments is None else segments
    workers = w["workers"] if workers is None else workers
    argv = [tracer, "campaign", "--core", w["core"], "--scale", str(w["scale"]),
            "--budget", str(w["budget"]), "--threads", str(w["threads"]),
            "--seed", str(tuner_seed), "--segments", str(segments),
            "--workers", str(workers), "--racesim", racesim, "--dir", workdir]
    if w["journal"]:
        argv.append("--journal")
    out = tracer_json(argv, workdir)
    tuned = os.path.join(workdir, "tuned.cfg")
    with open(tuned, "rb") as f:
        config = f.read()
    out["config"] = config
    out["config_sha256"] = hashlib.sha256(config).hexdigest()
    out["tuned"] = tuned
    return out


def score(tracer, w, config_path, cwd):
    return tracer_json([tracer, "score", "--core", w["core"], "--scale", str(w["scale"]),
                        "--config", config_path], cwd)


# --------------------------------------------------------------------------
# Reference values


def reference(name, w, tuner_seed, recorded, tracer, racesim, work):
    """What every campaign of this run must produce: the `recorded` entry of
    perfbench/expected.json when there is one, else a fresh library run."""
    key = f"{name}/{tuner_seed}"
    if recorded and os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            table = json.load(f)
        if key in table:
            return dict(table[key], source="perfbench/expected.json")
    log(f"computing the reference for {key}: the campaign, unstaged and in-process")
    ref = traced_campaign(tracer, racesim, w, tuner_seed, os.path.join(work, "reference"),
                          segments=1, workers=0)
    s = score(tracer, w, ref["tuned"], work)
    return dict(evals=int(ref["evals"]), race_best_cost_bits=ref["best_cost_bits"],
                config_sha256=ref["config_sha256"], best_cost_bits=s["best_cost_bits"],
                spec_error_bits=s["spec_error_bits"], source="library, unstaged, in-process")


def check_campaign(c, ref, label):
    """Mismatches of one campaign's outputs against the reference."""
    bad = []
    if c["evals"] != ref["evals"]:
        bad.append(f"{label}: {c['evals']} evaluations, reference {ref['evals']}")
    if c["config_sha256"] != ref["config_sha256"]:
        bad.append(f"{label}: tuned configuration differs from the reference")
    if "best_line" in c:
        want = f"{struct_f64(ref['race_best_cost_bits']):.2f}"
        if c["best_line"] != want:
            bad.append(f"{label}: best cost {c['best_line']}%, reference {want}%")
    elif c["best_cost_bits"] != ref["race_best_cost_bits"]:
        bad.append(f"{label}: best cost bits {c['best_cost_bits']}, "
                   f"reference {ref['race_best_cost_bits']}")
    return bad


def check_score(s, ref):
    bad = []
    for key in ("best_cost_bits", "spec_error_bits"):
        if s[key] != ref[key]:
            bad.append(f"re-scored {key} {s[key]}, reference {ref[key]}")
    return bad


def struct_f64(bits_hex):
    return struct.unpack(">d", bytes.fromhex(bits_hex))[0]


# --------------------------------------------------------------------------
# Statistics and output


def summary(values):
    """Median, the highest percentile with at least ten samples beyond it
    (None below eleven samples), and the sample count."""
    xs = sorted(values)
    n = len(xs)
    tail = None
    if n >= 11:
        p = math.floor(100.0 * (n - 10) / n)
        rank = max(1, math.ceil(p / 100.0 * n))
        tail = (p, xs[rank - 1])
    return statistics.median(xs), tail, n


def metric_specs():
    with open(BENCHMARK) as f:
        b = json.load(f)
    return b["end_to_end"], b["per_layer"]


def print_table(title, rows):
    print(f"# {title}")
    for name, unit, values in rows:
        med, tail, n = summary(values)
        tail_txt = f"p{tail[0]}={tail[1]:.6g}" if tail else "tail: n<11"
        print(f"#   {name:<28} {med:>14.6g} {unit:<8} median  {tail_txt}  n={n}")


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# --------------------------------------------------------------------------
# The two kinds of run


def run_untraced(name, w, args, racesim, tracer, work):
    ref = reference(name, w, args.tuner_seed, not args.smoke, tracer, racesim, work)
    reps, problems = [], []
    t0 = time.perf_counter()
    while not reps or time.perf_counter() - t0 < args.seconds:
        d = os.path.join(work, f"rep{len(reps)}")
        c = cli_campaign(racesim, w, args.tuner_seed, d)
        problems += check_campaign(c, ref, f"campaign {len(reps)}")
        reps.append(c)
        last_tuned = c["tuned"]
        if len(reps) > 1:
            shutil.rmtree(os.path.join(work, f"rep{len(reps) - 2}"))
    s = score(tracer, w, last_tuned, work)
    problems += check_score(s, ref)
    end_to_end, _ = metric_specs()
    per_rep = {k: [c[k] for c in reps] for k in
               ("tune_s", "setup_s", "evals_per_s", "cpu_s", "peak_rss_mb")}
    per_rep["best_cost_pct"] = [s["best_cost_pct"]]
    per_rep["spec_error_pct"] = [s["spec_error_pct"]]
    attempted = sum(c["evals"] for c in reps)
    failed = sum(c["failed"] for c in reps)
    units = {m["name"]: m["unit"] for m in end_to_end}
    rows = [(k, units[k], per_rep[k]) for k in units]
    rows.append(("failed_pct", "%", [100.0 * failed / attempted]))
    print_table(f"{name}: end-to-end, tracing off, reference {ref['source']}", rows)
    metrics = {k: {"value": statistics.median(per_rep[k]), "unit": units[k]} for k in units}
    return metrics, attempted, failed, problems, len(reps)


def run_traced(name, w, args, racesim, tracer, work):
    ref = reference(name, w, args.tuner_seed, not args.smoke, tracer, racesim, work)
    untraced, traced, problems = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        i = len(traced)
        c = cli_campaign(racesim, w, args.tuner_seed, os.path.join(work, f"cli{i}"))
        problems += check_campaign(c, ref, f"untraced campaign {i}")
        t = traced_campaign(tracer, racesim, w, args.tuner_seed, os.path.join(work, f"traced{i}"))
        problems += check_campaign(t, ref, f"traced campaign {i}")
        if t["config"] != c["config"] or int(t["evals"]) != c["evals"]:
            problems.append(f"traced campaign {i} differs from the untraced one")
        untraced.append(c)
        traced.append(t)
    s = score(tracer, w, traced[-1]["tuned"], work)
    problems += check_score(s, ref)
    _, per_layer = metric_specs()
    units = {m["name"]: m["unit"] for m in per_layer}
    values = {}
    for k in units:
        if k in s:
            values[k] = [s[k]]
        elif k in traced[0]:
            values[k] = [t[k] for t in traced]
    values["bench.untraced_tune_s"] = [c["tune_s"] for c in untraced]
    values["bench.traced_tune_s"] = [t["wall_s"] for t in traced]
    un = statistics.median(values["bench.untraced_tune_s"])
    tr = statistics.median(values["bench.traced_tune_s"])
    values["bench.tracing_overhead_pct"] = [100.0 * (tr - un) / un]
    missing = [k for k in units if k not in values]
    if missing:
        raise BenchError(f"per-layer metrics not produced: {', '.join(missing)}")
    print_table(f"{name}: per layer, traced, reference {ref['source']}",
                [(k, units[k], values[k]) for k in units])
    metrics = {k: {"value": statistics.median(values[k]), "unit": units[k]} for k in units}
    attempted = sum(int(t["evals"]) for t in traced)
    failed = sum(int(t["failed"]) for t in traced)
    return metrics, attempted, failed, problems, len(traced)


def record_expected(args, w):
    work = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    try:
        racesim, tracer = build()
        os.makedirs(work)
        ref = reference(args.workload, w, args.tuner_seed, False, tracer, racesim, work)
    except (BenchError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    del ref["source"]
    table = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            table = json.load(f)
    table[f"{args.workload}/{args.tuner_seed}"] = ref
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"recorded {args.workload}/{args.tuner_seed}: {ref}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int,
                    help="run seed; recorded with the result (the campaign inputs are "
                         "fixed by --tuner-seed, see perfbench/README.md)")
    ap.add_argument("--seconds", type=float,
                    help="measure for this long: campaigns start until it has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--tuner-seed", type=int, default=DEFAULT_TUNER_SEED,
                    help="the tuner seed every campaign uses (default: racesim's own)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale and budget, for the benchmark's own tests")
    ap.add_argument("--record-expected", action="store_true",
                    help="run the library reference for --workload and --tuner-seed and "
                         "store it in perfbench/expected.json, instead of measuring")
    args = ap.parse_args(argv)
    if not args.record_expected and None in (args.seed, args.seconds, args.trace):
        ap.error("--seed, --seconds and --trace are required")

    w = workload_params(args.workload, args.smoke)
    if args.record_expected:
        return record_expected(args, w)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        racesim, tracer = build()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, problems, reps = run(
            args.workload, w, args, racesim, tracer, work)
    except (BenchError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        log(f"perfbench: MISMATCH {p}")
    provenance = dict(
        workload=args.workload, params=w, smoke=args.smoke, seed=args.seed,
        tuner_seed=args.tuner_seed, trace=args.trace, campaigns=reps,
        seconds=args.seconds, git_commit=git_commit(), nproc=os.cpu_count(),
        cpu_model=cpu_model(), reference_board="synthetic ReferenceBoard, not hardware")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(dict(correct=not problems, attempted=attempted, failed=failed,
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
