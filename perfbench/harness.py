"""Workload-independent measurement: set-up, closed-loop timing, traced pass.

A workload runs in *rounds*.  A round is one closed-loop step of the single
client and yields one or more *ops* (a subsample, a fit, or one submission
resolved by the serve layer), each with its latency and check outcome.  The
end-to-end metrics are computed over ops; the traced pass replays the same
rounds (same seeds) with the layer wrappers installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import Patches, Recorder, chrome_trace, interval_union_ns, layer_summary

#: how many times a run builds its inputs to report a median setup_s
SETUP_REPEATS = 3


@dataclass
class Round:
    """What one closed-loop round produced."""

    latencies_ms: list[float]
    failed: int = 0
    energy_j: float = 0.0
    digest: str = ""
    extras: dict = field(default_factory=dict)
    wall_ns: tuple[int, int] = (0, 0)

    @property
    def ok_ops(self) -> int:
        return len(self.latencies_ms)


def op_seed(seed: int, i: int) -> int:
    """Seed of round ``i`` of a run seeded ``seed`` (round 0 is the warm-up)."""
    return (seed * 1_000_003 + i) % (2**31 - 1)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a))
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def points_digest(points) -> str:
    names = sorted(points.values)
    return digest_arrays(points.coords, points.time,
                         *[points.values[n] for n in names])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(np.ceil(q / 100.0 * len(ordered))) - 1))
    return ordered[k]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is KiB on Linux


def _git_rev(root: str) -> str | None:
    """HEAD commit read straight from ``.git`` (no subprocess), if any.

    A branch lives in its loose ``.git/<ref>`` file or, after ``git gc`` or
    ``git pack-refs``, only as a ``<sha> <ref>`` line of ``.git/packed-refs``.
    """
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def _src_digest(root: str) -> str:
    """sha256 over every ``src/**/*.py`` (path + bytes): identifies the
    program even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                h.update(sha256_file(path).encode())
    return h.hexdigest()


def provenance(root: str, workload, seed: int, seconds: float, trace: int) -> dict:
    uname = os.uname()
    return {
        "host": {
            # os.uname, not platform.*: those spawn helper processes, which
            # would land in the children's peak RSS
            "cores": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": uname.machine,
            "kernel": f"{uname.sysname} {uname.release}",
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "git_rev": _git_rev(root),
        "src_sha256": _src_digest(root),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": workload.sizes(),
    }


class Run:
    """One benchmark invocation over one workload."""

    def __init__(self, root: str, workload, seed: int, seconds: float, workdir: str) -> None:
        self.root = root
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.failed = 0
        self.attempted = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.warm: Round | None = None
        self.meta: dict = {}

    # ---- pieces -------------------------------------------------------------

    def _round(self, i: int, rec: Recorder | None = None) -> Round:
        """Run round ``i``; an exception fails every op of the round."""
        start = time.perf_counter_ns()
        try:
            if rec is None:
                r = self.wl.round(i)
            else:
                rec.op = i
                with rec.span("op", round=i):
                    r = self.wl.round(i, rec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            r = Round(latencies_ms=[], failed=self.wl.ops_per_round)
        r.wall_ns = (start, time.perf_counter_ns())
        return r

    def setup(self, repeats: int) -> float:
        """Build the inputs ``repeats`` times, keep the last, warm it up.

        Returns the median input-build time in seconds.  The warm-up round
        is not part of it: its cost is an op's, which the window measures.
        The first and the last build each get a warm-up round, and equal
        outputs check that inputs are a pure function of the seed.
        """
        times, fingerprints = [], []
        for k in range(repeats):
            if k:
                self.wl.close()
                shutil.rmtree(self.wl.workdir, ignore_errors=True)
            t0 = time.perf_counter()
            self.wl.setup(self.seed, tempfile.mkdtemp(prefix="setup-", dir=self.workdir))
            times.append(time.perf_counter() - t0)
            if k in (0, repeats - 1):
                self.warm = self._round(0)
                fingerprints.append(self.warm.digest)
        self._check("warm-up round passes its checks",
                    self.warm.failed == 0 and self.warm.ok_ops > 0, "")
        if repeats > 1:
            self._check("same seed gives the same inputs and warm-up output",
                        len(set(fingerprints)) == 1,
                        ", ".join(f[:12] for f in fingerprints))
        return statistics.median(times)

    def window(self, seconds: float) -> tuple[list[Round], float]:
        """Closed loop: run rounds 1, 2, ... until ``seconds`` have elapsed."""
        rounds: list[Round] = []
        t0 = time.perf_counter()
        i = 1
        while True:
            rounds.append(self._round(i))
            i += 1
            if time.perf_counter() - t0 >= seconds:
                break
        return rounds, time.perf_counter() - t0

    def _check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def _tally(self, rounds: list[Round]) -> None:
        for r in rounds:
            self.attempted += r.ok_ops + r.failed
            self.failed += r.failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)

    # ---- the two modes ------------------------------------------------------

    def measure(self) -> tuple[dict, dict]:
        """Untraced run: returns (end-to-end metrics, workload extras)."""
        setup_s = self.setup(SETUP_REPEATS)
        self.meta = provenance(self.root, self.wl, self.seed, self.seconds, 0)
        rounds, window_s = self.window(self.seconds)
        # read before the output checks, which do work the workload never does
        rss_mb = peak_rss_mb()
        self._tally(rounds)
        for name, ok, detail in self.wl.checks(self.warm, rounds):
            self._check(name, ok, detail)
        lat = [x for r in rounds for x in r.latencies_ms]
        n_ok = len(lat)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
            "op_ms_p50": statistics.median(lat) if lat else float("nan"),
            "ops_per_s": n_ok / window_s,
            "energy_j_per_op": sum(r.energy_j for r in rounds) / max(n_ok, 1),
        }
        extras = self.wl.extras(rounds, window_s)
        extras["ops"] = (n_ok, "count")
        extras["window_s"] = (window_s, "s")
        return metrics, extras

    def measure_traced(self, out_dir: str) -> tuple[dict, dict]:
        """Traced run: untraced rounds, then the same rounds traced.

        Returns (per-layer metrics, summary document).  Writes a Chrome
        trace and the per-layer summary under ``out_dir``.
        """
        self.setup(1)
        meta = self.meta = provenance(self.root, self.wl, self.seed, self.seconds, 1)
        plain, _ = self.window(self.seconds / 2.0)
        self.wl.reset()
        rec = Recorder()
        patches = Patches()
        self.wl.install(rec, patches)
        try:
            traced = [self._round(r_i + 1, rec) for r_i in range(len(plain))]
        finally:
            patches.undo()
        self._tally(plain)
        self._tally(traced)
        for name, ok, detail in self.wl.checks(self.warm, plain + traced):
            self._check(name, ok, detail)
        same = [p.digest == t.digest for p, t in zip(plain, traced)]
        self._check("traced and untraced outputs are byte-identical", all(same),
                    f"{sum(same)}/{len(same)} rounds identical")

        p50_plain = statistics.median(x for r in plain for x in r.latencies_ms)
        p50_traced = statistics.median(x for r in traced for x in r.latencies_ms)
        layer = self.wl.layer_metrics(rec, traced)
        layer["trace.overhead_x"] = p50_traced / p50_plain
        layer["trace.coverage"] = self._coverage(rec, traced)

        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{self.wl.name}-seed{self.seed}")
        with open(stem + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(rec.spans, meta), fh)
        summary = {
            "provenance": meta,
            "layers": layer_summary(rec.spans),
            "metrics": layer,
            "op_ms_p50_untraced": p50_plain,
            "op_ms_p50_traced": p50_traced,
            "rounds": len(traced),
        }
        with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        summary["files"] = [stem + ".trace.json", stem + ".summary.json"]
        return layer, summary

    @staticmethod
    def _coverage(rec: Recorder, rounds: list[Round]) -> float:
        """Median over rounds of the share of round wall time covered by
        the union of all layer spans recorded in that round."""
        by_op: dict[int, list[tuple[int, int]]] = {}
        for s in rec.spans:
            if s.name != "op":
                by_op.setdefault(s.op, []).append((s.start_ns, s.end_ns))
        shares = []
        for i, r in enumerate(rounds, start=1):
            lo, hi = r.wall_ns
            spans = [(max(a, lo), min(b, hi)) for a, b in by_op.get(i, [])]
            spans = [(a, b) for a, b in spans if b > a]
            shares.append(interval_union_ns(spans) / max(hi - lo, 1))
        return statistics.median(shares) if shares else 0.0
