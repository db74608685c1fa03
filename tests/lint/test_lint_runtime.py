"""Runtime sanitizer tests: the deliberately-raced fixture must be caught,
quiescent use must not be, and shm leak tracking must balance."""

import threading
from multiprocessing import shared_memory

import pytest

from repro.lint import runtime


@pytest.fixture
def sanitizer():
    runtime.install()
    try:
        yield runtime
    finally:
        runtime.uninstall()


class Box:
    """Minimal lock-owning class, instrumented per-test via guard_class."""

    def __init__(self):
        self._lock = threading.RLock()
        self._data = {}

    def put(self, key, value):
        with self._lock:
            self._data[key] = value

    def racy_read(self):
        return dict(self._data)  # deliberately off-lock  # repro-lint: ignore[RPL003]


def test_enabled_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not runtime.enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not runtime.enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert runtime.enabled()


def test_tracked_rlock_ownership():
    lock = runtime.TrackedRLock()
    assert not lock.owned()
    with lock:
        assert lock.owned()
        assert not lock.held_by_other()
        with lock:  # reentrant
            assert lock.owned()
        assert lock.owned()
    assert not lock.owned()

    seen = {}
    with lock:
        t = threading.Thread(
            target=lambda: seen.update(other=lock.held_by_other()), daemon=True
        )
        t.start()
        t.join()
    assert seen["other"] is True


def test_deliberate_race_is_detected(sanitizer):
    sanitizer.guard_class(Box, "_lock", ("_data",))
    box = Box()
    box.put("a", 1)

    with box._lock:  # hold the lock on the main thread...
        t = threading.Thread(target=box.racy_read, daemon=True)
        t.start()  # ...while a worker reads guarded state off-lock
        t.join()

    report = sanitizer.check(strict=False)
    assert any(
        v.cls == "Box" and v.attr == "_data" and v.op == "read"
        for v in report["lock_violations"]
    )
    with pytest.raises(AssertionError, match="off-lock read"):
        sanitizer.check(strict=True)


def test_quiescent_access_not_flagged(sanitizer):
    sanitizer.guard_class(Box, "_lock", ("_data",))
    box = Box()
    box.put("a", 1)
    assert box.racy_read() == {"a": 1}  # single-threaded: benign
    # multi-threaded but disciplined use is also clean
    workers = [
        threading.Thread(target=box.put, args=(i, i), daemon=True) for i in range(4)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert sanitizer.check(strict=False)["lock_violations"] == []


def test_registered_classes_are_instrumented(sanitizer):
    from repro.data.sources import (
        RemoteTieredSource,
        ShardDirSource,
        SimulationSource,
    )

    for cls, attr in (
        (ShardDirSource, "_cache"),
        (RemoteTieredSource, "_staged"),
        (SimulationSource, "_cache"),
    ):
        assert type(cls.__dict__[attr]).__name__ == "_GuardedAttr"
    # a subclass inherits the instrumentation
    assert isinstance(RemoteTieredSource._cache, object)
    assert type(RemoteTieredSource.__mro__[1].__dict__["_cache"]).__name__ == "_GuardedAttr"


def test_shm_leak_detection(sanitizer):
    seg = shared_memory.SharedMemory(create=True, size=64)
    name = seg.name
    seg.close()
    assert name in sanitizer.shm_leaks()
    with pytest.raises(AssertionError, match="leaked shm segment"):
        sanitizer.check(strict=True)
    # balancing the segment clears the report
    reopen = shared_memory.SharedMemory(name=name)
    reopen.close()
    reopen.unlink()
    assert name not in sanitizer.shm_leaks()
    assert sanitizer.check(strict=False)["shm_leaks"] == []


def test_uninstall_restores_classes():
    from repro.data.sources import SimulationSource

    runtime.install()
    assert runtime.installed()
    runtime.uninstall()
    assert not runtime.installed()
    assert "_cache" not in SimulationSource.__dict__  # plain attribute again
    assert shared_memory.SharedMemory.__name__ == "SharedMemory"
    box = Box()  # never re-instrumented after uninstall
    box.put("a", 1)
    assert not isinstance(box._lock, runtime.TrackedRLock)


def test_install_is_idempotent():
    runtime.install()
    try:
        runtime.install()  # second call must not re-wrap __init__
        from repro.data.sources import SimulationSource

        wrapped = SimulationSource.__init__
        runtime.install()
        assert SimulationSource.__init__ is wrapped
    finally:
        runtime.uninstall()
