#!/usr/bin/env python3
"""perfbench: the repository's benchmark of the ways users run the attack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the shipped
binaries (backbuster, attackd, attackctl) and the benchmark's helpers from
source into .bench_build (or $CARGO_TARGET_DIR); every run works in
.bench_work/ and removes what it made there.

A run generates its inputs from --seed, runs the workload's operations one
at a time, checks every output byte for byte against a reference computed
outside the timed region, and prints one JSON object as its last stdout
line. --trace 0 reports the end-to-end metrics; --trace 1 runs the same
operations both untraced and traced and reports the per-layer metrics plus
a per-layer profile. README.md has the workloads, metrics and
baseline figures.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
WORKLOADS = ("call_batch", "call_stream", "daemon_sharded", "locate_dictionary")

# Inputs use the `backbuster simulate` defaults: 192x144 at 12 fps.
FRAME_BYTES = 192 * 144 * 3
# A call splits its duration evenly over its nine actions, in whole frames.
CALL_SECONDS = 34  # 405 frames: longer than the default --window 64
DAEMON_SECONDS = 20  # 234 frames
SCENE_SECONDS = 9  # 108 frames per locate_dictionary query input
SHARDS = 3
# Actions with caller motion; `still` leaks almost nothing to attack.
ACTIONS = ("arm_wave", "lean_forward", "lean_backward", "rotate", "clap",
           "stretch", "type", "drink", "exit_enter")
PARTICIPANTS = 5
# Nominal seconds per operation on the reference host (4 cores). A run does
# ceil(--seconds / nominal) operations, so it measures about --seconds there
# and the same work on every commit.
NOMINAL_OP_S = {"call_batch": 3.5, "call_stream": 3.5,
                "daemon_sharded": 3.8, "locate_dictionary": 0.8}
LOCATE_QUERIES = 16  # query inputs; a run queries each the same number of times
# Per-operation deadline: a hang (e.g. a worker parked on a futex) becomes a
# failed operation instead of a stuck run. No process outlives RUN_LIMIT_S
# after the run started, so a run ends within 180 s even when every
# operation hangs.
DEADLINE_S = {"call_batch": 40.0, "call_stream": 40.0,
              "daemon_sharded": 25.0, "locate_dictionary": 60.0}
SETUP_DEADLINE_S = 60.0
RUN_LIMIT_S = 165.0
RUN_START = time.monotonic()
DONE_POLL_S = 0.002


def metric_units(key):
    """Metric name -> unit, in BENCHMARK.json order, for one metric list.

    Output quality (rbrr_verified, top1_rate, track_accuracy) is listed with
    the per-layer metrics: it is deterministic for a seed but moves far more
    from one seed to the next than any end-to-end bound allows."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def note(msg):
    print(msg, flush=True)


# ---- processes ---------------------------------------------------------------

_live = set()  # process-group ids of children still running
_live_lock = threading.Lock()


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid, limit_s=10.0):
    """Waits until no process of the group is left (orphans included)."""
    until = time.monotonic() + limit_s
    while time.monotonic() < until:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def stop_all():
    with _live_lock:
        groups = list(_live)
    for pgid in groups:
        _kill_group(pgid)
    for pgid in groups:
        _wait_group_gone(pgid)


class Proc:
    """One child process in its own session, reaped with wait4."""

    def __init__(self, argv, log_path, env, deadline_s):
        self.argv = argv
        self.log_path = log_path
        self.timed_out = False
        with open(log_path, "wb") as out:
            self.start = time.monotonic()
            self.popen = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=env,
                start_new_session=True)
        self.pid = self.popen.pid
        with _live_lock:
            _live.add(self.pid)
        deadline_s = min(deadline_s, max(
            1.0, RUN_LIMIT_S - (time.monotonic() - RUN_START)))
        self.timer = threading.Timer(deadline_s, self._expire)
        self.timer.daemon = True
        self.timer.start()
        self.status = None

    def _expire(self):
        self.timed_out = True
        _kill_group(self.pid)

    def _finish(self, status, ru):
        self.end = time.monotonic()
        self.timer.cancel()
        self.status = status
        self.popen.returncode = -1  # reaped here, not by Popen
        self.wall = self.end - self.start
        self.cpu = ru.ru_utime + ru.ru_stime
        self.maxrss_kb = ru.ru_maxrss
        # The group outlives its leader when the leader dies first; make
        # sure nothing of it is left running.
        if not self.ok:
            _kill_group(self.pid)
        _wait_group_gone(self.pid)
        with _live_lock:
            _live.discard(self.pid)

    def wait(self):
        _, status, ru = os.wait4(self.pid, 0)
        self._finish(status, ru)
        return self

    def poll(self):
        """True once the process has ended (and has been reaped)."""
        if self.status is not None:
            return True
        pid, status, ru = os.wait4(self.pid, os.WNOHANG)
        if pid == 0:
            return False
        self._finish(status, ru)
        return True

    @property
    def ok(self):
        return (not self.timed_out and os.WIFEXITED(self.status)
                and os.WEXITSTATUS(self.status) == 0)

    def outcome(self):
        if self.timed_out:
            return "timeout after %.0f s" % self.timer.interval
        if os.WIFSIGNALED(self.status):
            return "killed by signal %d (%s)" % (
                os.WTERMSIG(self.status),
                signal.Signals(os.WTERMSIG(self.status)).name)
        return "exit %d" % os.WEXITSTATUS(self.status)

    def output(self):
        with open(self.log_path, "rb") as f:
            return f.read().decode("utf-8", "replace")

    def result_json(self):
        """The JSON object on the last line of the process's output."""
        lines = [l for l in self.output().splitlines() if l.startswith("{")]
        return json.loads(lines[-1]) if lines else None


def run(argv, log_path, env, deadline_s):
    return Proc(argv, log_path, env, deadline_s).wait()


def run_parallel(jobs, env, deadline_s, width):
    """Runs (argv, log_path) jobs, at most `width` at a time, in order."""
    done, pending, live = [None] * len(jobs), list(enumerate(jobs)), {}
    while pending or live:
        while pending and len(live) < width:
            i, (argv, log_path) = pending.pop(0)
            p = Proc(argv, log_path, env, deadline_s)
            live[p.pid] = (i, p)
        pid, status, ru = os.wait4(-1, 0)
        if pid in live:
            i, p = live.pop(pid)
            p._finish(status, ru)
            done[i] = p
    return done


# ---- statistics --------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def describe(name, xs, unit):
    """Median plus the highest percentile with >= 10 samples beyond it."""
    if not xs:
        return "%s: no samples" % name
    text = "%s: median %.6g %s" % (name, median(xs), unit)
    tails = [p for p in (0.9, 0.95, 0.99, 0.999) if len(xs) * (1 - p) >= 10]
    if tails:
        text += ", p%g %.6g %s" % (100 * tails[-1], quantile(xs, tails[-1]),
                                   unit)
    return text + " (n=%d)" % len(xs)


def measure(intervals):
    """Total length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def clip(intervals, lo, hi):
    return [(max(s, lo), min(e, hi)) for s, e in intervals
            if min(e, hi) > max(s, lo)]


def subtract(span, holes):
    """[start, end) minus the union of `holes`, as a list of intervals."""
    out, cur = [], span[0]
    for s, e in sorted(clip(holes, span[0], span[1])):
        if s > cur:
            out.append((cur, s))
        cur = max(cur, e)
    if cur < span[1]:
        out.append((cur, span[1]))
    return out


# ---- spans -------------------------------------------------------------------

LAYERS = ("video", "vb", "segmentation", "core", "imaging", "attacks",
          "service", "partial")


def layer_of(name):
    head = name.split(".")[0]
    return head if head in LAYERS else None


def thread_of(span):
    """The recording thread; spans run.py makes itself are all on one."""
    return span.get("thread", 0)


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


class Profile:
    """Per-layer self time across a run's traced operations.

    Self time of a span is its duration minus the union of its children
    on the same thread (children on other threads ran alongside it, not
    inside it). `busy` sums self time over spans (threads add up); `wall`
    is the union of the layer's self intervals, so it never exceeds the
    operation wall. Layers' walls overlap when threads work concurrently.
    """

    def __init__(self):
        self.op_wall = 0.0
        self.ops = 0
        self.busy = {}
        self.wall = {}
        self.count = {}
        self.covered = 0.0  # union of every layer's self intervals

    def add(self, spans, op_wall):
        self.ops += 1
        self.op_wall += op_wall
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)
        self_intervals = {}
        for s in spans:
            layer = layer_of(s["name"])
            if layer is None:
                continue
            holes = [(c["start"], c["end"]) for c in children.get(s["id"], [])
                     if thread_of(c) == thread_of(s)]
            pieces = subtract((s["start"], s["end"]), holes)
            self.busy[layer] = self.busy.get(layer, 0.0) + sum(
                e - b for b, e in pieces)
            self.count[layer] = self.count.get(layer, 0) + 1
            self_intervals.setdefault(layer, []).extend(pieces)
        for layer, pieces in self_intervals.items():
            self.wall[layer] = self.wall.get(layer, 0.0) + measure(pieces)
        self.covered += measure([p for pieces in self_intervals.values()
                                 for p in pieces])

    def print(self, workload):
        if not self.ops:
            return
        note("profile %s: self time per layer as %% of operation wall "
             "(%d traced operations, %.3f s)" % (workload, self.ops,
                                                  self.op_wall))
        note("  %-13s %8s %8s %8s" % ("layer", "wall%", "busy%", "spans"))
        for layer in LAYERS:
            if layer not in self.count:
                continue
            note("  %-13s %7.1f%% %7.1f%% %8d" % (
                layer, 100 * self.wall[layer] / self.op_wall,
                100 * self.busy[layer] / self.op_wall, self.count[layer]))
        note("  %-13s %7.1f%%" % ("(unspanned)",
                                  100 * max(0.0, 1 - self.covered /
                                            self.op_wall)))


def top_level_coverage(spans, op_wall):
    """Union of the operation span's direct children over operation wall."""
    roots = {s["id"] for s in spans if s["name"] == "op"}
    tops = [(s["start"], s["end"]) for s in spans if s["parent"] in roots]
    return measure(tops) / op_wall if op_wall > 0 else 0.0


# ---- build -------------------------------------------------------------------

def build(build_dir):
    """Configures and builds the benchmark package; returns the binary dir."""
    for needed in ("src/CMakeLists.txt", "apps/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(REPO, needed)):
            raise SystemExit("perfbench: %s is missing; run from a source "
                             "checkout" % needed)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for argv in steps:
        r = subprocess.run(argv, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT)
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode("utf-8", "replace")[-4000:])
            raise SystemExit("perfbench: build failed: %s" % " ".join(argv))
    return {
        "backbuster": os.path.join(build_dir, "apps", "backbuster"),
        "attackd": os.path.join(build_dir, "apps", "attackd"),
        "attackctl": os.path.join(build_dir, "apps", "attackctl"),
        "bbbench": os.path.join(build_dir, "bbbench"),
        "shim": os.path.join(build_dir, "worker_shim"),
    }


# ---- inputs ------------------------------------------------------------------

def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def draw_cases(workload, seed, count, actions=len(ACTIONS)):
    """Action script, participant and scene of each input, from the seed.

    Each input's caller performs `actions` distinct actions in a seeded
    order; with the default, every call performs every action, so calls
    differ in order, person and room but not in their mix of motion."""
    rng = random.Random("%s:%d" % (workload, seed))
    return [{"script": rng.sample(ACTIONS, actions),
             "participant": rng.randrange(PARTICIPANTS),
             "scene_seed": rng.randrange(1, 1 << 30)} for _ in range(count)]


def case_args(case):
    return ["--script", ",".join(case["script"]), "--participant",
            str(case["participant"]), "--scene-seed", str(case["scene_seed"])]


class Failures:
    """Every failed operation, printed with its status and seed."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.items = []

    def attempt(self, n=1):
        self.attempted += n

    def fail(self, what, why):
        self.items.append((what, why))
        note("FAILED %s op %s: %s (seed %d)" % (self.workload, what, why,
                                               self.seed))


# ---- the runner ----------------------------------------------------------------

class Runner:
    def __init__(self, args, bins, work):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.bins = bins
        self.work = work
        self.width = max(1, len(os.sched_getaffinity(0)))
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("BB_")}
        self.failures = Failures(args.workload, args.seed)
        self.e2e = {}
        self.layer = {name: 0.0 for name in metric_units("per_layer")}
        self.profile = Profile()
        self.extra_ok = True  # checks outside the measured operations
        # At least two inputs: tracking takes its negatives from another one.
        self.ops = max(2, math.ceil(self.seconds / NOMINAL_OP_S[self.workload]))
        if self.workload == "locate_dictionary":
            self.ops = LOCATE_QUERIES * math.ceil(self.ops / LOCATE_QUERIES)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    # -- set-up ------------------------------------------------------------

    def generate_calls(self, duration_s, count):
        """Set-up: one seeded call per unit, timed per unit."""
        cases = draw_cases(self.workload, self.seed, count)
        jobs = []
        for i, case in enumerate(cases):
            case["base"] = self.path("call%d" % i)
            case["bbv"] = case["base"] + ".bbv"
            jobs.append(([self.bins["bbbench"], "call", "--duration",
                          str(duration_s), "--out", case["base"]]
                         + case_args(case), self.path("call%d.log" % i)))
        for case, p in zip(cases, self.setup_units(jobs)):
            case["frames"] = p.result_json()["frames"]
        self.print_digests([case["base"] + suffix for case in cases
                            for suffix in (".bbv", ".truth.png", ".objects")])
        return cases

    def setup_units(self, jobs):
        procs = run_parallel(jobs, self.env, SETUP_DEADLINE_S, self.width)
        for p in procs:
            if not p.ok:
                sys.stderr.write(p.output()[-2000:])
                raise SystemExit("perfbench: set-up failed: %s (%s, seed %d)"
                                 % (" ".join(p.argv), p.outcome(), self.seed))
        # The set-up wall: the units run `width` at a time.
        self.e2e["setup_s"] = (max(p.end for p in procs) -
                               min(p.start for p in procs))
        return procs

    def print_digests(self, paths):
        for path in paths:
            note("input %s sha256:%s" % (os.path.relpath(path, self.work),
                                          digest(path)))

    # -- references and evaluation -------------------------------------------

    def references(self, cases):
        """1-thread Reconstructor::Run per call, plus its evaluation base."""
        jobs = [([self.bins["bbbench"], "ref", "--base", case["base"]],
                 self.path("ref%d.log" % i)) for i, case in enumerate(cases)]
        procs = run_parallel(jobs, self.env, SETUP_DEADLINE_S, self.width)
        for case, p in zip(cases, procs):
            if not p.ok:
                sys.stderr.write(p.output()[-2000:])
                raise SystemExit("perfbench: reference failed: %s (%s, seed "
                                 "%d)" % (" ".join(p.argv), p.outcome(),
                                          self.seed))
            case["rbrr"] = p.result_json()["rbrr_verified"]
            case["ref_png"] = read_bytes(case["base"] + ".recon.png")
            case["ref_cov"] = read_bytes(case["base"] + ".recon.coverage.png")

    def quality(self, cases, scored=None):
        """Output quality: verified RBRR of every case, and with the traced
        run the top-1 location rate and tracking accuracy of the bases
        (`scored` is the locate result that already has them)."""
        self.layer["rbrr_verified"] = statistics.mean(c["rbrr"] for c in cases)
        if scored is None and self.trace:
            scored = self.evaluate([c["base"] for c in cases])
        text = "quality of %d inputs: rbrr_verified %.6f" % (
            len(cases), self.layer["rbrr_verified"])
        if scored is not None:
            self.layer["top1_rate"] = scored["top1_rate"]
            self.layer["track_accuracy"] = scored["track_accuracy"]
            text += " top1_rate %.6f track_accuracy %.6f" % (
                scored["top1_rate"], scored["track_accuracy"])
        note(text)

    def evaluate(self, bases):
        """Top-1 location rate and tracking accuracy of the given bases."""
        p = run([self.bins["bbbench"], "locate", "--inputs", ",".join(bases),
                 "--seed", str(self.seed), "--ops", str(len(bases))],
                self.path("evaluate.log"), self.env, SETUP_DEADLINE_S)
        if not p.ok:
            sys.stderr.write(p.output()[-2000:])
            raise SystemExit("perfbench: evaluation failed (%s, seed %d)"
                             % (p.outcome(), self.seed))
        return p.result_json()

    def check_output(self, what, base, case):
        """Byte-compares an attack's outputs with the call's reference."""
        problem = output_problem(base, case)
        if problem:
            self.failures.fail(what, problem)
        return problem is None

    # -- call_batch / call_stream -----------------------------------------------

    def attack_argv(self, case, out):
        argv = [self.bins["backbuster"], "attack", "--in", case["bbv"],
                "--out", out]
        if self.workload == "call_stream":
            argv.append("--stream")
        return argv

    def traced_attack_argv(self, case, out, op, spans):
        argv = [self.bins["bbbench"], "attack", "--in", case["bbv"], "--out",
                out, "--spans", spans, "--op", str(op)]
        if self.workload == "call_stream":
            argv.append("--stream")
        return argv

    def run_calls(self):
        cases = self.generate_calls(CALL_SECONDS, self.ops)
        plain, traced = [], []  # (case, Proc[, result, spans])
        for i, case in enumerate(cases):
            out = self.path("attack%d" % i)
            self.failures.attempt()
            p = run(self.attack_argv(case, out), out + ".log", self.env,
                    DEADLINE_S[self.workload])
            note("op attack%d: %s, wall %.3f s, cpu %.3f s, peak rss %.1f MB"
                 % (i, p.outcome(), p.wall, p.cpu, p.maxrss_kb / 1024))
            plain.append((case, p, out))
            if self.trace:
                tout = self.path("traced%d" % i)
                spans = tout + ".spans"
                self.failures.attempt()
                t = run(self.traced_attack_argv(case, tout, i, spans),
                        tout + ".log", self.env, DEADLINE_S[self.workload])
                traced.append((case, t, tout, spans))
        # Outside the timed region: references, checks, evaluation.
        self.references(cases)
        good = []
        for i, (case, p, out) in enumerate(plain):
            if not p.ok:
                self.failures.fail("attack%d" % i, p.outcome())
            elif self.check_output("attack%d" % i, out, case):
                good.append((case, p))
        good_traced = []
        for i, (case, t, tout, spans) in enumerate(traced):
            if not t.ok:
                self.failures.fail("traced%d" % i, t.outcome())
            elif self.check_output("traced%d" % i, tout, case):
                good_traced.append((case, t, spans))
        self.quality(cases)
        walls = [p.wall for _, p in good]
        frames = [c["frames"] for c, _ in good]
        note(describe("call_s", walls, "s"))
        self.e2e.update({
            "frames_per_s": sum(frames) / sum(walls) if walls else 0.0,
            "call_s": median(walls),
            "job_s": median(walls),
            "query_s": median(walls),
            "cpu_ms_per_frame": 1000 * sum(p.cpu for _, p in good) /
                                max(1, sum(frames)),
            "peak_rss_mb": max([p.maxrss_kb / 1024 for _, p in good] or [0]),
        })
        if self.trace:
            self.call_layers(good, good_traced)

    def call_layers(self, plain, traced):
        L = self.layer
        rows = []
        for case, t, spans_path in traced:
            spans = load_spans(spans_path)
            r = t.result_json()
            frames = r["frames"]
            self.profile.add(spans, t.wall)
            by = {}
            for s in spans:
                by.setdefault(s["name"], []).append(s)
            dur = lambda name: [s["end"] - s["start"] for s in by.get(name, [])]
            stage = lambda name: r["stages"].get(name, [0, 0.0])[1]
            run_span = by["core.run"][0]
            # Pass boundaries: the caller pass starts when the last analysis
            # pass ends and lasts the library's reconstruct.caller_prepare
            # stage; decomposition follows for reconstruct.accumulate.
            ends = [s["end"] for s in by.get("segmentation.end_pass", [])
                    if run_span["start"] <= s["end"] <= run_span["end"]]
            decomp_lo = (max(ends) if ends else run_span["start"]) + stage(
                "reconstruct.caller_prepare")
            decomp_hi = decomp_lo + stage("reconstruct.accumulate")
            # Per thread, like the profile: the caller thread runs a shard
            # of every window flush, so its time in the pass outside its own
            # Segment and Pull spans is the decomposition's own time on
            # one thread (plus any wait for the slowest shard).
            nested = [(s["start"], s["end"]) for name in
                      ("segmentation.segment", "video.pull")
                      for s in by.get(name, [])
                      if thread_of(s) == thread_of(run_span)]
            seg_spans = [(s["start"], s["end"]) for s in spans
                         if s["name"].startswith("segmentation.")]
            hits = r["counters"].get("stream.pool_hits", 0)
            misses = r["counters"].get("stream.pool_misses", 0)
            rows.append({
                "video.pull_ms": 1000 * statistics.mean(dur("video.pull"))
                if dur("video.pull") else 0.0,
                "video.pulls_per_frame": len(dur("video.pull")) / frames,
                "video.load_s": sum(dur("video.load")),
                "vb.derive_s": sum(dur("vb.derive")),
                "segmentation.analysis_s": sum(
                    sum(dur(n)) for n in ("segmentation.begin_pass",
                                          "segmentation.push",
                                          "segmentation.end_pass")),
                "segmentation.segment_ms":
                    1000 * statistics.mean(dur("segmentation.segment")),
                "segmentation.segments_per_frame":
                    len(dur("segmentation.segment")) / frames,
                "segmentation.share": measure(seg_spans) / t.wall,
                "core.caller_pass_s": stage("reconstruct.caller_prepare"),
                "core.decompose_self_s": (decomp_hi - decomp_lo) - measure(
                    clip(nested, decomp_lo, decomp_hi)),
                "core.finalize_ms": 1000 * stage("reconstruct.finalize"),
                "core.pool_hit_rate": hits / max(1, hits + misses),
                "core.peak_window_frames":
                    r["counters"].get("stream.peak_window_frames", 0),
                "imaging.write_ms": 1000 * sum(dur("imaging.write")),
                "trace.coverage": top_level_coverage(spans, t.wall),
            })
        for key in rows[0] if rows else ():
            L[key] = median([row[key] for row in rows])
        if rows:
            L["trace.coverage"] = min(row["trace.coverage"] for row in rows)
        L["parallel.cpu_per_wall"] = median([p.cpu / p.wall for _, p in plain])
        self.set_overhead([t.wall for _, t, _ in traced],
                          [p.wall for _, p in plain])

    def set_overhead(self, traced_walls, plain_walls):
        if traced_walls and plain_walls:
            self.layer["trace.overhead"] = median(traced_walls) / median(
                plain_walls)

    # -- daemon_sharded -------------------------------------------------------

    def daemon_round(self, cases, name, traced=False, faults=None):
        """Submits every call, then drains the spool with one attackd."""
        spool = self.path(name, "spool")
        os.makedirs(spool)
        jobs = []
        for i, case in enumerate(cases):
            out = self.path(name, "out%d" % i)
            p = run([self.bins["attackctl"], "submit", "--spool", spool,
                     "--in", case["bbv"], "--out", out, "--shards",
                     str(SHARDS), "--threads", "1"],
                    self.path(name, "submit%d.log" % i), self.env, 30.0)
            m = re.search(r"submitted job (\d+)", p.output())
            jobs.append({"case": case, "out": out, "submit": p,
                         "id": int(m.group(1)) if p.ok and m else None,
                         "done": None, "state": None})
        argv = [self.bins["attackd"], "--spool", spool, "--drain-once",
                "--max-workers", str(SHARDS)]
        env = self.env
        if traced:
            env = dict(self.env, PERFBENCH_WORKER=self.bins["backbuster"],
                       PERFBENCH_SHIM_LOG=self.path(name, "shim.log"),
                       PERFBENCH_TRACE_DIR=self.path(name, "traces"))
            os.makedirs(self.path(name, "traces"))
            argv += ["--worker-bin", self.bins["shim"], "--trace",
                     self.path(name, "attackd.json")]
        if faults:
            argv += ["--faults", faults]
        by_id = {j["id"]: j for j in jobs if j["id"] is not None}
        daemon = Proc(argv, self.path(name, "attackd.log"), env,
                      DEADLINE_S["daemon_sharded"] * max(1, len(by_id)))
        while True:
            finished = daemon.poll()
            now = time.monotonic()
            for state in ("done", "failed"):
                for entry in os.listdir(os.path.join(spool, state)):
                    m = re.fullmatch(r"(\d+)\.bbjb", entry)
                    job = by_id.get(int(m.group(1))) if m else None
                    if job is not None and job["done"] is None:
                        job["done"], job["state"] = now, state
            if finished:
                break
            time.sleep(DONE_POLL_S)
        return {"jobs": jobs, "daemon": daemon, "spool": spool,
                "name": name}

    def check_round(self, rnd, label):
        """Failure accounting for one round; returns the good jobs."""
        good = []
        d = rnd["daemon"]
        for i, job in enumerate(rnd["jobs"]):
            what = "%s job%d" % (label, i)
            if not job["submit"].ok or job["id"] is None:
                self.failures.fail(what, "submit " + job["submit"].outcome())
            elif job["state"] != "done":
                self.failures.fail(what, "job ended in %s; attackd %s" % (
                    job["state"] or "no final state", d.outcome()))
            elif not d.ok:
                # Done, but the daemon that ran it crashed or hung after.
                self.failures.fail(what, "job done but attackd " +
                                   d.outcome())
            elif self.check_output(what, job["out"], job["case"]):
                good.append(job)
        return good

    def run_daemon(self):
        cases = self.generate_calls(DAEMON_SECONDS, self.ops)
        self.failures.attempt(len(cases))
        plain = self.daemon_round(cases, "plain")
        traced = None
        if self.trace:
            self.failures.attempt(len(cases))
            traced = self.daemon_round(cases, "traced", traced=True)
        self.references(cases)
        good = self.check_round(plain, "plain")
        self.quality(cases)
        job_s = [j["done"] - j["submit"].start for j in good]
        frames = sum(j["case"]["frames"] for j in good)
        d = plain["daemon"]
        first = min(j["submit"].start for j in plain["jobs"])
        last = max([j["done"] for j in good] or [first])
        cpu = d.cpu + sum(j["submit"].cpu for j in plain["jobs"])
        note(describe("job_s", job_s, "s"))
        self.e2e.update({
            "frames_per_s": frames / (last - first) if good else 0.0,
            "call_s": median(job_s),
            "job_s": median(job_s),
            "query_s": median(job_s),
            "cpu_ms_per_frame": 1000 * cpu / max(1, frames),
            "peak_rss_mb": max([d.maxrss_kb] + [j["submit"].maxrss_kb
                                                for j in plain["jobs"]]) / 1024,
        })
        if self.trace:
            good_traced = self.check_round(traced, "traced")
            self.daemon_layers(plain, traced, good_traced)
            self.fault_check(cases[:1])

    def shim_records(self, rnd):
        path = self.path(rnd["name"], "shim.log")
        if not os.path.exists(path):
            return []
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    @staticmethod
    def job_of(record):
        """Job id a worker ran for, from the work/<id>/ paths it was given."""
        for arg in record["argv"]:
            m = re.search(r"[/\\]work[/\\](\d+)[/\\]", arg)
            if m:
                return int(m.group(1))
        return None

    def daemon_layers(self, plain, traced, good):
        L = self.layer
        records = self.shim_records(traced)
        counters = read_json(self.path("traced", "attackd.json")).get(
            "counters", {})
        rows, workers, coverage = [], [], []
        for job in good:
            mine = [r for r in records if self.job_of(r) == job["id"]]
            shards = [r for r in mine if r["argv"][0] == "attack"]
            reduces = [r for r in mine if r["argv"][0] == "reduce"]
            if not shards or not reduces:
                continue
            sub = job["submit"]
            wall = job["done"] - sub.start
            spawn = min(r["start"] for r in shards)
            worker_s = [r["end"] - r["start"] for r in shards]
            reduce_s = sum(r["end"] - r["start"] for r in reduces)
            workers += worker_s
            # Spans of this job, in the span-recorder layout.
            spans = [{"id": 0, "name": "op", "start": sub.start,
                      "end": job["done"], "parent": -1},
                     {"id": 1, "name": "service.submit", "start": sub.start,
                      "end": sub.end, "parent": 0},
                     {"id": 2, "name": "service.queue_wait",
                      "start": sub.end, "end": spawn, "parent": 0}]
            for r in shards:
                spans.append({"id": len(spans), "name": "service.worker",
                              "start": r["start"], "end": r["end"],
                              "parent": 0})
            for r in reduces:
                spans.append({"id": len(spans), "name": "partial.reduce",
                              "start": r["start"], "end": r["end"],
                              "parent": 0})
            self.profile.add(spans, wall)
            coverage.append(top_level_coverage(spans, wall))
            frames = job["case"]["frames"]
            stages, ctrs = [], []
            for r in shards:
                t = read_json(r["trace"])
                stages.append(t.get("stages", {}))
                ctrs.append(t.get("counters", {}))
            stage = lambda st, n: st.get(n, {}).get("total_ms", 0.0) / 1000
            hits = sum(c.get("stream.pool_hits", 0) for c in ctrs)
            misses = sum(c.get("stream.pool_misses", 0) for c in ctrs)
            partials = self.partial_sizes(traced, job["id"])
            rows.append({
                "service.submit_ms": 1000 * sub.wall,
                "service.queue_wait_s": spawn - sub.end,
                "service.shard_skew": max(worker_s) / min(worker_s),
                "service.redundant_frames": sum(r["rchar"] for r in shards) /
                                            (frames * FRAME_BYTES),
                "service.overhead_s": wall - (spawn - sub.start) -
                                      max(worker_s) - reduce_s,
                "partial.reduce_s": reduce_s,
                "partial.bytes": statistics.mean(partials) if partials else 0,
                "core.caller_pass_s": statistics.mean(
                    stage(s, "reconstruct.caller_prepare") for s in stages),
                "core.finalize_ms": 1000 * statistics.mean(
                    stage(s, "reconstruct.finalize") for s in stages),
                "core.pool_hit_rate": hits / max(1, hits + misses),
                "core.peak_window_frames": max(
                    c.get("stream.peak_window_frames", 0) for c in ctrs),
            })
        for key in rows[0] if rows else ():
            L[key] = median([row[key] for row in rows])
        if workers:
            L["service.worker_s"] = median(workers)
            L["service.worker_s_max"] = max(workers)
        if coverage:
            L["trace.coverage"] = min(coverage)
        jobs = max(1, len(traced["jobs"]))
        L["service.spawns_per_job"] = (
            counters.get("service.workers_spawned", 0) +
            counters.get("fault.injected.spawn", 0)) / jobs
        # Per worker process: each runs single-threaded, so this stays near 1.
        L["parallel.cpu_per_wall"] = median([
            r["cpu_s"] / (r["end"] - r["start"]) for r in records
            if r["argv"][0] == "attack"])
        d = plain["daemon"]
        self.set_overhead([traced["daemon"].end - min(
            j["submit"].start for j in traced["jobs"])],
            [d.end - min(j["submit"].start for j in plain["jobs"])])

    def partial_sizes(self, rnd, job_id):
        work = os.path.join(rnd["spool"], "work", str(job_id))
        if not os.path.isdir(work):
            return []
        return [os.path.getsize(os.path.join(work, f))
                for f in sorted(os.listdir(work)) if f.endswith(".bbpr")]

    def fault_check(self, cases):
        """A job whose first worker launch fails must retry and still match."""
        rnd = self.daemon_round(cases, "fault", traced=True,
                                faults="spawn@0=fail")
        ok = rnd["daemon"].ok and all(
            job["state"] == "done" and
            output_problem(job["out"], job["case"]) is None
            for job in rnd["jobs"])
        counters = read_json(self.path("fault", "attackd.json")).get(
            "counters", {})
        spawns = (counters.get("service.workers_spawned", 0) +
                  counters.get("fault.injected.spawn", 0)) / len(cases)
        retries = counters.get("service.retries", 0)
        note("fault check (spawn@0=fail, not measured): service.spawns_per_job"
             " %g (clean run %g), service.retries %d, output %s" % (
                 spawns, self.layer["service.spawns_per_job"], retries,
                 "matches the reference" if ok else "WRONG"))
        if not ok or retries < 1 or \
                spawns <= self.layer["service.spawns_per_job"]:
            self.extra_ok = False
            note("FAILED fault check (seed %d)" % self.seed)

    # -- locate_dictionary --------------------------------------------------------

    def run_locate(self):
        cases = draw_cases(self.workload, self.seed, LOCATE_QUERIES)
        jobs = []
        for i, case in enumerate(cases):
            case["base"] = self.path("query%d" % i)
            jobs.append(([self.bins["bbbench"], "call", "--duration",
                          str(SCENE_SECONDS), "--out", case["base"],
                          "--reconstruct"] + case_args(case),
                         self.path("query%d.log" % i)))
        units = self.setup_units(jobs)
        for case, p in zip(cases, units):
            r = p.result_json()
            case["rbrr"], case["frames"] = r["rbrr_verified"], r["frames"]
        self.print_digests([case["base"] + suffix for case in cases
                            for suffix in (".recon.png", ".recon.coverage.png",
                                           ".truth.png", ".objects")])
        bases = ",".join(c["base"] for c in cases)
        argv = [self.bins["bbbench"], "locate", "--inputs", bases, "--seed",
                str(self.seed)]
        timed = argv + ["--ops", str(self.ops)]
        self.failures.attempt(self.ops)
        p = run(timed, self.path("locate.log"), self.env,
                DEADLINE_S["locate_dictionary"])
        t = None
        if self.trace:
            self.failures.attempt(self.ops)
            t = run(timed + ["--spans", self.path("locate.spans")],
                    self.path("locate-traced.log"), self.env,
                    DEADLINE_S["locate_dictionary"])
        # Outside the timed region: the prune=false references, split over
        # parallel processes.
        chunks = [list(range(len(cases)))[i::self.width]
                  for i in range(self.width)]
        jobs = [(argv + ["--exhaustive", ",".join(map(str, chunk))],
                 self.path("exhaustive%d.log" % i))
                for i, chunk in enumerate(chunks) if chunk]
        refs = {}
        for ref in run_parallel(jobs, self.env, SETUP_DEADLINE_S, self.width):
            if not ref.ok:
                sys.stderr.write(ref.output()[-2000:])
                raise SystemExit("perfbench: reference failed (%s, seed %d)"
                                 % (ref.outcome(), self.seed))
            refs.update({int(q): d for q, d in ref.result_json()["refs"].items()})
        r = self.locate_result(p, "locate", refs)
        if t is not None:
            t = self.locate_result(t, "locate-traced", refs)
        if r is None:
            return
        # The dictionary build runs in the query process before the first
        # timed query; it follows the input units.
        self.e2e["setup_s"] += r["setup_s"]
        good = [o for o in r["ops"] if o["ok"]]
        walls = [o["wall_s"] for o in good]
        evidence = sum(cases[o["query"]]["frames"] for o in good)
        note(describe("query_s", walls, "s"))
        self.e2e.update({
            "frames_per_s": evidence / sum(walls) if walls else 0.0,
            "call_s": median(walls),
            "job_s": median(walls),
            "query_s": median(walls),
            "cpu_ms_per_frame": 1000 * r["cpu_s"] / max(1, evidence),
            "peak_rss_mb": r["maxrss_kb"] / 1024,
        })
        self.quality(cases, scored=r)
        if t is not None:
            self.locate_layers(r, t)

    def locate_result(self, p, label, refs):
        if not p.ok:
            self.failures.fail(label, p.outcome())
            for _ in range(self.ops - 1):
                self.failures.fail(label, "not run: the query process ended")
            return None
        r = p.result_json()
        for i, o in enumerate(r["ops"]):
            o["ok"] = o["digest"] == refs.get(o["query"])
            if not o["ok"]:
                self.failures.fail("%s query%d" % (label, i), "result differs "
                                   "from the prune=false reference")
        return r

    def locate_layers(self, r, t):
        L = self.layer
        spans = load_spans(self.path("locate.spans"))
        ops = {}
        for s in spans:
            ops.setdefault(s["op"], []).append(s)
        coverage = []
        rank, track = [], []
        for op, group in sorted(ops.items()):
            root = [s for s in group if s["name"] == "op"][0]
            wall = root["end"] - root["start"]
            self.profile.add(group, wall)
            coverage.append(top_level_coverage(group, wall))
            rank += [s["end"] - s["start"] for s in group
                     if s["name"] == "attacks.rank"]
            track += [s["end"] - s["start"] for s in group
                      if s["name"] == "attacks.track"]
        c = t["counters"]
        n = max(1, len(t["ops"]))
        windows = sum(c.get("match_template." + k, 0)
                      for k in ("windows_scored", "windows_pruned",
                                "windows_abandoned"))
        shifts = c.get("location.candidates_ranked", 0) * t[
            "shifts_per_candidate"]
        L.update({
            "attacks.rank_ms_per_candidate": 1000 * median(rank) / t[
                "dictionary"],
            "attacks.track_ms": 1000 * median(track),
            "attacks.shift_abandon_ratio": c.get("location.shifts_abandoned",
                                                 0) / max(1, shifts),
            "detect.prune_ratio": (windows - c.get(
                "match_template.windows_scored", 0)) / max(1, windows),
            "detect.windows_scored": c.get("match_template.windows_scored",
                                           0) / n,
            "trace.coverage": min(coverage) if coverage else 0.0,
            "parallel.cpu_per_wall": r["cpu_s"] / sum(
                o["wall_s"] for o in r["ops"]),
        })
        self.set_overhead([o["wall_s"] for o in t["ops"]],
                          [o["wall_s"] for o in r["ops"]])

    # -- result --------------------------------------------------------------

    def result(self):
        f = len(self.failures.items)
        a = max(1, self.failures.attempted)
        # Rule-of-succession estimate, so the rate is never exactly 0; the
        # raw counts are the top-level attempted/failed fields.
        self.e2e["error_rate"] = (f + 1) / (a + 2)
        if self.trace:
            self.profile.print(self.workload)
            metrics = {k: {"value": float(self.layer[k]), "unit": u}
                       for k, u in metric_units("per_layer").items()}
        else:
            metrics = {k: {"value": float(self.e2e.get(k, 0.0)), "unit": u}
                       for k, u in metric_units("end_to_end").items()}
        return {"correct": f == 0 and self.extra_ok, "attempted": a,
                "failed": f, "metrics": metrics}


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def read_json(path):
    """A JSON file a child process wrote; {} when it never got written."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def output_problem(base, case):
    """Why an attack's outputs under `base` are not its call's reference."""
    for suffix, want in ((".png", case["ref_png"]),
                         (".coverage.png", case["ref_cov"])):
        got = read_bytes(base + suffix)
        if got is None:
            return "missing output %s" % suffix
        if got != want:
            return "output %s differs from the reference" % suffix
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        raise SystemExit("perfbench: --seconds must be >= 1")

    signal.signal(signal.SIGTERM, lambda *_: (stop_all(), os._exit(143)))
    bins = build(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(REPO, ".bench_build")))
    scratch = os.path.join(REPO, ".bench_work")
    work = os.path.join(scratch, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    os.makedirs(work)
    try:
        runner = Runner(args, bins, work)
        note("perfbench %s seed %d seconds %d trace %d: %d operations" % (
            args.workload, args.seed, args.seconds, args.trace, runner.ops))
        {"call_batch": runner.run_calls, "call_stream": runner.run_calls,
         "daemon_sharded": runner.run_daemon,
         "locate_dictionary": runner.run_locate}[args.workload]()
        result = runner.result()
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
