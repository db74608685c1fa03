"""Self-tests of the benchmark itself (not collected by the repo's pytest run).

    python3 perfbench/selftest.py            # everything, ~55 s
    python3 perfbench/selftest.py -k Unit    # only the fast unit tests

Covers the tracing wrappers (the communicator wrapper forwards every
abstract method, patches undo cleanly, self time and union arithmetic), the
metric names each mode emits against ``BENCHMARK.json``, a short smoke run
of every workload in both modes, and the refusal to run without the program.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import declared_metrics  # noqa: E402
from tracing import (  # noqa: E402
    Patches, Recorder, Span, TimedComm, chrome_trace, interval_union_ns, layer_summary,
)
from workloads import WORKLOADS  # noqa: E402

from repro.parallel.comm import Communicator, SerialComm  # noqa: E402


class _Probe(SerialComm):
    """A serial communicator that logs which collective was called, how."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[str, tuple, dict]] = []

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if name in Communicator.__abstractmethods__ and callable(attr):
            calls = super().__getattribute__("calls")

            def logged(*args, **kwargs):
                calls.append((name, args, kwargs))
                return ("sentinel", name)

            return logged
        return attr


_ARGS = {
    "barrier": ((), {}),
    "bcast": ((1,), {"root": 0}),
    "scatter": (([1],), {"root": 0}),
    "gather": ((1,), {"root": 0}),
    "allgather": ((1,), {}),
    "reduce": ((1,), {"op": "max", "root": 0}),
    "allreduce": ((1,), {"op": "min"}),
    "alltoall": (([1],), {}),
    "send": ((1, 0), {"tag": 3}),
    "recv": ((0,), {"tag": 3}),
}


class UnitTimedComm(unittest.TestCase):
    def test_forwards_every_abstract_method(self):
        inner, rec = _Probe(), Recorder()
        comm = TimedComm(inner, rec)  # instantiable: nothing left abstract
        for name in sorted(Communicator.__abstractmethods__):
            if isinstance(getattr(Communicator, name), property):
                self.assertEqual(getattr(comm, name), getattr(inner, name), name)
                continue
            self.assertIn(name, _ARGS, f"no test arguments for new method {name}")
            args, kwargs = _ARGS[name]
            inner.calls.clear()
            out = getattr(comm, name)(*args, **kwargs)
            self.assertEqual(out, ("sentinel", name))
            self.assertEqual(inner.calls, [(name, args, kwargs)])
        spans = {s.name for s in rec.spans}
        self.assertEqual(spans, {f"parallel.{n}" for n in _ARGS})

    def test_records_virtual_time(self):
        rec = Recorder()
        TimedComm(SerialComm(), rec).allreduce(2.0)
        (span,) = rec.spans
        self.assertIn("virtual_s", span.attrs)


class UnitRecorder(unittest.TestCase):
    def test_nesting_and_self_time(self):
        spans = [
            Span(1, 0, "outer", 0, 100, 1, 0),
            Span(2, 1, "inner", 10, 40, 1, 0),
            Span(3, 1, "inner", 30, 60, 1, 0),
        ]
        summary = layer_summary(spans)
        self.assertAlmostEqual(summary["outer"]["self_ms"], 50 / 1e6)
        self.assertEqual(summary["inner"]["count"], 2)
        self.assertEqual(interval_union_ns([(0, 10), (5, 20), (30, 40)]), 30)

    def test_span_parent_is_innermost_open_span(self):
        rec = Recorder()
        with rec.span("a"):
            with rec.span("b"):
                pass
        b, a = rec.spans
        self.assertEqual(b.parent, a.id)
        self.assertEqual(a.parent, 0)

    def test_patches_undo(self):
        class Base:
            def f(self):
                return 1

            @classmethod
            def g(cls):
                return cls.__name__

        class Child(Base):
            pass

        rec, patches = Recorder(), Patches()
        patches.wrap_method(Child, "f", rec, "x.f")
        patches.wrap_method(Child, "g", rec, "x.g")
        self.assertEqual(Child().f(), 1)
        self.assertEqual(Child.g(), "Child")
        self.assertEqual([s.name for s in rec.spans], ["x.f", "x.g"])
        patches.undo()
        self.assertNotIn("f", Child.__dict__)
        self.assertNotIn("g", Child.__dict__)

    def test_chrome_trace_fields(self):
        doc = chrome_trace([Span(7, 3, "data.fetch", 1000, 5000, 2, 1, {"k": 1})], {})
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(event["name"], "data.fetch")
        self.assertEqual(event["dur"], 4.0)
        for key in ("id", "parent", "op", "rank", "start_us", "end_us"):
            self.assertIn(key, event["args"])


def _run(workload: str, trace: int, cwd: str = ROOT, seconds: str = "0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


class UnitDeclaration(unittest.TestCase):
    def test_declared_workloads_are_the_implemented_ones(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(WORKLOADS))


class SmokeWorkloads(unittest.TestCase):
    """Each workload, both modes: exit 0, correct, exactly the declared metrics."""

    def _check(self, workload: str, trace: int) -> None:
        proc = _run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(doc["correct"])
        self.assertGreaterEqual(doc["attempted"], 1)
        self.assertEqual(doc["failed"], 0)
        e2e, layer = declared_metrics()
        declared = layer if trace else e2e
        self.assertEqual(set(doc["metrics"]), set(declared))
        for name, m in doc["metrics"].items():
            self.assertEqual(m["unit"], declared[name])
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)


def _smoke(workload: str, trace: int):
    return lambda self: self._check(workload, trace)


for _w in WORKLOADS:
    for _t in (0, 1):
        setattr(SmokeWorkloads, f"test_{_w.replace('-', '_')}_trace{_t}", _smoke(_w, _t))


class SmokeRefusal(unittest.TestCase):
    def test_fails_without_the_program(self):
        work = os.path.join(ROOT, ".perfbench-work")
        os.makedirs(work, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=work)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run("subsample-batch", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
