"""
The grhecke benchmark: four cold-process CLI workloads with an exact-output
gate, and a traced run that reports per-layer self times and work counts.

    python3 perfbench/run.py --workload table-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from anywhere; it benchmarks the src/ next to this directory and
works under .bench_build/perfbench/ there. Every measured run is a fresh
interpreter (child.py) that imports grhecke and calls grhecke.cli.main, so
the process-wide memos start empty exactly as a CLI user's do.

Load shape: a closed loop with one client. One child runs at a time, with
the CLI default --jobs 1 and no thread pools, pinned to one core beside
the host-speed sampler (see HostSpeed). Children of one workload are
started until their summed wall time reaches --seconds, and at least two.
The inputs are the fixed exact problems below; --seed only interleaves
the order of workloads, children and set-up probes, so that drift on a
shared host does not land on one workload.

Excluded on purpose:
- --jobs N > 1: on a 2-core host the process pool's scaling cannot be
  shown honestly, and the pool shares both cores with the measurement.
- universal --max-grade 4: about 355 s per child, too slow for the many
  runs a comparison needs. Add it once the universal layer is faster.

With --trace 0 the last line reports the end-to-end metrics of one run,
each child's times rescaled to a reference host speed (see HostSpeed):
- wall_s: the median over the run's children of the time from starting
  the child to its exit, the time a user waits for the answer;
- peak_rss_mb: the median of the children's own peak RSS;
- setup_s: the median time from starting a child until `import grhecke`
  has returned and the CLI arguments are parsed, over the measured
  children and extra probe children that stop right there.
The unscaled wall times are printed above the last line, and the traced
run reports their median as process.raw_wall_s. With --trace 1 traced and
untraced children alternate and the last line holds the per-layer metrics
of PER_LAYER (span times as the traced children measured them, unscaled).
It is always one JSON object with the keys "correct", "attempted",
"failed" and "metrics".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

CHILD_TIMEOUT_S = 150
MIN_CHILDREN = 2  # measured children per workload and run, even past --seconds
MIN_SETUPS = 11  # set-up samples per workload and run, topped up by probe children
CAL_PERIOD_S = 0.05  # host-speed sampling period
CAL_REF_S = 0.0005  # CPU time of one _calibrate() on a quiet 2-vCPU VM
CAL_WINDOW_S = 0.5  # shortest window of samples that scales one child


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    cache: str  # "none", "empty" (fresh --cache dir) or "prefilled"
    why: str
    exercised: tuple[str, ...]  # traced functions that must be called


_TABLE = ("table", "--n", "7", "--max-size", "4", "--format", "csv")
_ALL = ("coxeter.conjugacy_class", "coxeter.minimal_length_elements", "hecke.mul",
        "hecke.is_central", "center.gamma_basis", "center.structure_constants",
        "center.expand_in_gamma")
_BUILD = ("polyring.solve_linear", "hecke.m_sym", "center.gamma_element")

WORKLOADS = {w.name: w for w in [
    Workload(
        "table-cold", _TABLE, "empty",
        "class-element construction is about half the work and the disk cache is "
        "written; the class-polynomial construction shows here",
        _ALL + _BUILD + ("cli.export_table",)),
    Workload(
        "table-warm", _TABLE, "prefilled",
        "construction is bypassed by a cache pre-filled by the same commit, so "
        "products and expansion dominate; construction changes must not show",
        _ALL + ("cli.export_table",)),
    Workload(
        "verify", ("verify", "--n", "6", "--max-size", "4"), "none",
        "every product up to three times plus the group-algebra oracle; the "
        "named target of faster structure constants",
        _ALL + _BUILD + ("hecke.group_mul", "center.class_sum_oracle",
                         "center.verify_structure_constants",
                         "center.verify_gamma_characterization",
                         "center.verify_zero_specialization",
                         "center.verify_elementary_sums")),
    Workload(
        "universal", ("universal", "--max-grade", "3"), "none",
        "the only path through graded_table, one_row_product_matrix and "
        "determinant, at ranks 2k and 2k+1 up to n=7",
        _ALL + _BUILD + ("polyring.determinant", "universal.graded_table",
                         "universal.one_row_product_matrix")),
]}

END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

_SELF = ["coxeter.conjugacy_class", "coxeter.minimal_length_elements",
         "polyring.solve_linear", "polyring.determinant", "hecke.mul", "hecke.m_sym",
         "hecke.is_central", "hecke.group_mul", "center.gamma_element",
         "center.gamma_basis", "center.structure_constants", "center.expand_in_gamma",
         "center.class_sum_oracle"]
_CALLS = ["coxeter.conjugacy_class", "polyring.solve_linear", "hecke.mul",
          "hecke.m_sym", "hecke.is_central", "center.gamma_element",
          "center.gamma_basis", "center.structure_constants", "center.expand_in_gamma"]
_INCL = ["center.verify_structure_constants", "center.verify_gamma_characterization",
         "center.verify_zero_specialization", "center.verify_elementary_sums",
         "universal.graded_table", "universal.one_row_product_matrix",
         "cli.export_table"]
_COUNTS = ["coxeter.perms_enumerated", "polyring.intpoly_mul.calls",
           "polyring.intpoly_add.calls", "hecke.gen_terms", "hecke.gen_calls",
           "center.gamma_element.repeat_calls", "center.structure_constants.repeat_calls",
           "center.verify.checks", "center.verify.witnesses", "universal.max_rank",
           "universal.structure_constants.calls"]
_MEASURED = [("center.cache.files_written", "count"), ("center.cache.bytes_written", "bytes"),
             ("cli.output_bytes", "bytes"), ("trace.overhead_s", "s"),
             ("process.cpu_s", "s"), ("process.raw_wall_s", "s")]

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{n}.self_s", "s", "lower") for n in _SELF]
    + [(f"{n}.calls", "count", "lower") for n in _CALLS]
    + [(f"{n}.incl_s", "s", "lower") for n in _INCL]
    + [(n, "rank" if n == "universal.max_rank" else "count",
        "higher" if n == "center.verify.checks" else "lower") for n in _COUNTS]
    + [(n, u, "lower") for n, u in _MEASURED]
)


@dataclass
class Child:
    mode: str
    t0: float  # time.monotonic() at start
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    exit: int
    digest: str
    nbytes: int
    passes_only: bool
    trace: dict | None = None
    ok: bool = True
    cache_files_written: int = 0
    cache_bytes_written: int = 0


@dataclass
class Tally:
    workload: Workload
    children: list[Child] = field(default_factory=list)
    probes: list[Child] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def measured(self, mode: str) -> list[Child]:
        return [c for c in self.children if c.mode == mode]

    def elapsed(self) -> float:
        return sum(c.wall_s for c in self.children)


def _src_hash() -> str:
    h = hashlib.sha256(platform.python_version().encode())
    for path in sorted((SRC / "grhecke").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _snapshot(d: Path) -> dict[str, tuple[int, int]]:
    if not d.is_dir():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in d.iterdir()}


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GRHECKE_CACHE", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    return env


def spawn(w: Workload, mode: str, cache_from: Path | None = None,
          keep_cache: Path | None = None) -> Child:
    """Run one child of `w` in its own temp dir and collect its measurements."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK / "tmp"))
    try:
        argv = list(w.argv)
        cache = tmp / "cache"
        if w.cache != "none":
            if cache_from is not None:
                shutil.copytree(cache_from, cache)
            else:
                cache.mkdir()
            argv += ["--cache", str(cache)]
        before = _snapshot(cache)
        out_path, report_path = tmp / "stdout", tmp / "report.json"
        with open(out_path, "wb") as out, open(tmp / "stderr", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "-s", str(CHILD), str(report_path), mode, "--", *argv],
                stdout=out, stderr=err, env=_child_env(), cwd=tmp)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # be the running maximum over every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        data = out_path.read_bytes()
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = {}
        after = _snapshot(cache)
        written = [name for name, st in after.items() if before.get(name) != st]
        if proc.returncode != 0:
            sys.stderr.write((tmp / "stderr").read_text(errors="replace")[-2000:])
        if keep_cache is not None and proc.returncode == 0:
            os.replace(cache, keep_cache)
        return Child(
            mode=mode,
            t0=t0,
            wall_s=wall,
            setup_s=report["setup_end"] - t0 if "setup_end" in report else None,
            rss_mb=usage.ru_maxrss / 1024,
            cpu_s=usage.ru_utime + usage.ru_stime,
            exit=proc.returncode,
            digest=hashlib.sha256(data).hexdigest(),
            nbytes=len(data),
            passes_only=all(line.startswith("PASS ")
                            for line in data.decode(errors="replace").splitlines()),
            trace=report.get("trace"),
            cache_files_written=len(written),
            cache_bytes_written=sum(after[name][0] for name in written),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def prefill(ref: dict, problems: list[str]) -> Path | None:
    """
    The cache dir a cold table run of this source leaves behind, built once
    per source tree, so a cache-format change cannot turn warm runs cold.
    None, with a problem recorded, when that run fails its gate.
    """
    path = WORK / f"prefill-{_src_hash()}"
    if path.is_dir():
        return path
    staging = Path(tempfile.mkdtemp(dir=WORK))
    try:
        child = spawn(WORKLOADS["table-cold"], "plain", keep_cache=staging / "cache")
        if (child.exit != 0 or child.digest != ref["table-cold"]["sha256"]
                or not child.cache_files_written):
            problems.append("the cold run that pre-fills the warm cache failed its gate")
            return None
        os.replace(staging / "cache", path)
        return path
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def check_child(t: Tally, c: Child, ref: dict) -> bool:
    w = t.workload
    ok = c.exit == 0 and c.digest == ref[w.name]["sha256"]
    if not ok:
        t.problems.append(f"{w.name} {c.mode} child: exit {c.exit}, "
                          f"output {c.nbytes} bytes, sha256 {c.digest[:12]}")
    if w.name == "verify" and not c.passes_only:
        t.problems.append("verify printed a line that is not PASS")
        ok = False
    if c.trace is None:
        return ok
    calls, counts = c.trace["calls"], c.trace["counts"]
    for fn in w.exercised:
        if not calls.get(fn):
            t.problems.append(f"traced {w.name}: {fn} was never called")
            ok = False
    if w.name == "verify" and (counts.get("center.verify.checks") != ref["verify_checks"]
                               or counts.get("center.verify.witnesses")):
        t.problems.append(f"traced verify: checks {counts.get('center.verify.checks')} "
                          f"(want {ref['verify_checks']}), "
                          f"witnesses {counts.get('center.verify.witnesses')}")
        ok = False
    return ok


def _calibrate() -> int:
    """A fixed slice of interpreter work like grhecke's: tuple keys, dict updates."""
    d: dict[tuple[int, int, int], int] = {}
    for i in range(2000):
        key = (i % 7, i % 5, i % 11)
        d[key] = d.get(key, 0) + i * i
    return len(d)


class HostSpeed:
    """
    The host's speed while children run. On a shared host one core's speed
    drifts by up to 2x, for seconds to minutes, and the CPU time of a child
    drifts with it, so neither its wall nor its CPU time is steady from run
    to run. A thread of this process times _calibrate() in CPU time every
    CAL_PERIOD_S (about 1% of one core) alongside the children; a child's
    times are rescaled by CAL_REF_S over the median sample of its interval.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (monotonic time, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.is_set():
            c = time.thread_time()
            _calibrate()
            self.samples.append((time.monotonic(), time.thread_time() - c))
            self._stop.wait(CAL_PERIOD_S)

    def __enter__(self) -> "HostSpeed":
        # sample the core the children run on: this thread's affinity is
        # inherited by the sampler thread and by every child it starts
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, c: Child) -> float:
        """Reference over measured speed around child `c` (below 1 on a slow host)."""
        t0, t1 = c.t0, c.t0 + c.wall_s
        pad = max(0.0, (CAL_WINDOW_S - (t1 - t0)) / 2)
        xs = [dt for t, dt in self.samples if t0 - pad <= t <= t1 + pad]
        return CAL_REF_S / statistics.median(xs or [dt for _, dt in self.samples])


def measure(names: list[str], seconds: int, trace: bool, rng: random.Random,
            ref: dict) -> dict[str, Tally]:
    tallies = {n: Tally(WORKLOADS[n]) for n in names}
    sources = {}
    for n in names:
        w = WORKLOADS[n]
        sources[n] = prefill(ref, tallies[n].problems) if w.cache == "prefilled" else None
        spawn(w, "probe")  # unmeasured: compiles bytecode, warms the file cache
    modes = {n: (["traced", "plain"] if rng.random() < 0.5 else ["plain", "traced"])
             if trace else ["plain"] for n in names}
    active = list(names)
    while active:
        n = rng.choice(active)
        t, w = tallies[n], WORKLOADS[n]
        mode = modes[n][len(t.children) % len(modes[n])]
        c = spawn(w, mode, sources[n])
        c.ok = check_child(t, c, ref)
        t.children.append(c)
        if not trace and rng.random() < 0.5:
            t.probes.append(spawn(w, "probe"))
        if t.elapsed() >= seconds and len(t.children) >= MIN_CHILDREN:
            active.remove(n)
    if not trace:
        for n in names:
            t = tallies[n]
            while len(t.children) + len(t.probes) < MIN_SETUPS:
                t.probes.append(spawn(t.workload, "probe"))
            if any(c.setup_s is None for c in t.children + t.probes):
                t.problems.append(f"{n}: a child or set-up probe ended before set-up")
    return tallies


def end_to_end(t: Tally, host: HostSpeed) -> dict[str, float]:
    kids = t.measured("plain")
    return {
        "wall_s": statistics.median(c.wall_s * host.scale(c) for c in kids),
        "peak_rss_mb": statistics.median(c.rss_mb for c in kids),
        "setup_s": statistics.median(c.setup_s * host.scale(c) for c in kids + t.probes
                                     if c.setup_s is not None),
    }


def per_layer(t: Tally, host: HostSpeed) -> dict[str, float]:
    traced = [c for c in t.measured("traced") if c.trace is not None]
    plain = t.measured("plain")
    if not traced:
        raise ValueError("no traced child finished")
    first = traced[0].trace
    out: dict[str, float] = {}
    for n in _SELF:
        out[f"{n}.self_s"] = statistics.median(c.trace["self_s"].get(n, 0.0) for c in traced)
    for n in _CALLS:
        out[f"{n}.calls"] = first["calls"].get(n, 0)
    for n in _INCL:
        out[f"{n}.incl_s"] = statistics.median(c.trace["incl_s"].get(n, 0.0) for c in traced)
    for n in _COUNTS:
        out[n] = first["counts"].get(n, 0)
    out["center.cache.files_written"] = traced[0].cache_files_written
    out["center.cache.bytes_written"] = traced[0].cache_bytes_written
    out["cli.output_bytes"] = traced[0].nbytes
    out["trace.overhead_s"] = (statistics.median(c.wall_s * host.scale(c) for c in traced)
                               - statistics.median(c.wall_s * host.scale(c) for c in plain))
    out["process.cpu_s"] = statistics.median(c.cpu_s for c in plain)
    out["process.raw_wall_s"] = statistics.median(c.wall_s for c in plain)
    return out


def provenance() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {"git_revision": rev or None, "src_sha256": _src_hash(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grhecke" / "__init__.py").is_file():
        print(f"no grhecke sources under {SRC}", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE.read_text())
    if ref["table-warm"] != ref["table-cold"]:
        print("reference: table-warm output differs from table-cold", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    with HostSpeed() as host:
        tallies = measure(names, args.seconds, bool(args.trace), rng, ref)

    print(f"provenance: {json.dumps(provenance())}")
    print(f"load: closed loop, 1 client, --jobs 1, seed {args.seed}, "
          f"{args.seconds} s per workload, trace {args.trace}")
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for n in sorted(names):
        t = tallies[n]
        bad = sum(not c.ok for c in t.children)
        attempted += len(t.children)
        failed += bad
        try:
            if args.trace:
                values = per_layer(t, host)
                units = {name: unit for name, unit, _ in PER_LAYER}
            else:
                values = end_to_end(t, host)
                units = dict(END_TO_END)
        except ValueError as exc:  # a statistic over no samples
            print(f"{n}: nothing to measure ({exc}); problems: {t.problems}", file=sys.stderr)
            return 1
        plain = t.measured("plain")
        print(f"workload {n}: {len(t.children)} children, {len(t.probes)} set-up probes; "
              f"raw wall s {[round(c.wall_s, 3) for c in plain]}, "
              f"host speed {[round(host.scale(c), 3) for c in plain]}")
        for name, value in values.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {name:45s} {shown} {units[name]}")
            key = name if len(names) == 1 else f"{n}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
        print(f"  {'fail_frac':45s} {bad / len(t.children):.6g} ({bad}/{len(t.children)})")
        print(f"  {'exact-output':45s} {'FAIL' if t.problems else 'PASS'}")
        for p in t.problems:
            print(f"    {p}")
    correct = not any(t.problems for t in tallies.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
