"""Runtime lock/leak sanitizer (``REPRO_SANITIZE=1``).

The static pass (RPL003/RPL005) proves lock discipline *lexically*; this
module verifies it *dynamically* for the code paths a test run actually
exercises, catching what static analysis cannot (helpers documented as
"lock held" but called off-lock, shm segments leaked by a path the
checker could not follow).  Three instruments:

* **Guarded attributes** — :func:`install` wraps the registered
  lock-owning classes (:data:`GUARDED_CLASSES`) so their lock becomes a
  :class:`TrackedRLock` and every guarded attribute access is checked:
  touching guarded state while *another* thread holds the lock, or while
  another thread is simultaneously inside an off-lock access of the same
  instance, records a :class:`Violation`.  Quiescent single-threaded
  access (construction, post-join reads) is deliberately not flagged.
* **Shared memory** — ``multiprocessing.shared_memory.SharedMemory`` is
  replaced with a tracked subclass; :func:`check` asserts every segment
  this process created was unlinked, and scans ``/dev/shm`` for stray
  ``psm_*`` segments that appeared since :func:`install` (covering
  leaks from forked workers too).
* **Hang forensics** — ``faulthandler`` is enabled (fatal signals dump
  all thread stacks); ``REPRO_SANITIZE_TIMEOUT=<seconds>`` additionally
  arms ``faulthandler.dump_traceback_later`` so a deadlocked suite
  prints every thread before CI kills it, and :func:`dump_threads` does
  the same on demand.

The suite under ``tests/parallel/`` auto-installs this via its conftest
when ``REPRO_SANITIZE=1`` and asserts a clean :func:`check` at session
end.  Production never pays: without :func:`install` nothing is patched.
"""

from __future__ import annotations

import faulthandler
import os
import sys
import threading
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory

__all__ = [
    "GUARDED_CLASSES",
    "TrackedRLock",
    "Violation",
    "check",
    "dump_threads",
    "enabled",
    "guard_class",
    "install",
    "installed",
    "shm_leaks",
    "uninstall",
    "violations",
]

#: (module, class, lock attribute, guarded attributes) wired up by install().
#: ``LazyMembers`` is deliberately absent: its lock-free fast-path read is a
#: documented benign race (atomic dict get of an immutable value).  Guarding
#: ``ShardDirSource`` covers its subclass ``RemoteTieredSource`` through
#: inheritance; the remote staging-tier state gets its own entry on the
#: subclass.
GUARDED_CLASSES = (
    ("repro.data.sources", "ShardDirSource", "_lock",
     ("_cache", "_stats", "_inflight", "_from_prefetch", "_worker", "_queue",
      "_grid_shape", "_shard_nbytes", "_times", "_max_resident")),
    ("repro.data.sources", "RemoteTieredSource", "_lock",
     ("_staged", "_staging", "_decoding")),
    ("repro.data.sources", "SimulationSource", "_lock",
     ("_cache", "_it", "_pos", "_seen_times", "_grid_shape", "_snapshot_nbytes")),
    ("repro.parallel.threadcomm", "CommWorld", "_queues_lock", ("_queues",)),
    ("repro.serve.scheduler", "Scheduler", "_lock",
     ("_jobs", "_by_key", "_queue", "_running_cost", "_draining", "_closed",
      "_seq", "_counters", "_cache_infos", "_energy_total")),
)

_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "psm_"

_registry_lock = threading.Lock()
_violations: list[Violation] = []
_inflight: dict[int, dict[int, int]] = {}  # id(obj) -> {thread ident: depth}
_shm_records: dict[str, dict[str, bool]] = {}  # name -> {created, unlinked}
_shm_baseline: frozenset[str] = frozenset()
_patched: list[tuple[type, str, object]] = []  # (cls, attr, original) for uninstall
_orig_shared_memory: type | None = None
_installed = False


def enabled() -> bool:
    """True when the environment asks for sanitized runs."""
    return os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0")


def installed() -> bool:
    return _installed


@dataclass(frozen=True)
class Violation:
    """One guarded-attribute access observed off-lock under contention."""

    cls: str
    attr: str
    op: str  # "read" | "write"
    thread: str
    where: str  # "file:lineno" of the access site
    detail: str

    def render(self) -> str:
        return (f"{self.cls}.{self.attr}: off-lock {self.op} from thread "
                f"{self.thread!r} at {self.where} ({self.detail})")


class TrackedRLock:
    """Reentrant lock that knows which thread holds it (sanitizer view)."""

    def __init__(self) -> None:
        self._inner = threading.RLock()
        self._owner: int | None = None
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._owner = threading.get_ident()
            self._depth += 1
        return got

    def release(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
        self._inner.release()

    def __enter__(self) -> TrackedRLock:
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def owned(self) -> bool:
        return self._owner == threading.get_ident()

    def held_by_other(self) -> bool:
        owner = self._owner
        return owner is not None and owner != threading.get_ident()


def _caller_site() -> str:
    frame = sys._getframe(3)
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _record(cls_name: str, attr: str, op: str, detail: str) -> None:
    violation = Violation(
        cls=cls_name,
        attr=attr,
        op=op,
        thread=threading.current_thread().name,
        where=_caller_site(),
        detail=detail,
    )
    with _registry_lock:
        _violations.append(violation)


class _GuardedAttr:
    """Data descriptor checking lock ownership around attribute access."""

    def __init__(self, name: str, lock_attr: str, cls_name: str) -> None:
        self.name = name
        self.lock_attr = lock_attr
        self.cls_name = cls_name
        self.store = f"_sanitized__{name}"

    # -- access bookkeeping --------------------------------------------------

    def _enter_unguarded(self, obj: object, op: str) -> bool:
        """Register an off-lock access; True if it overlapped another thread's."""
        ident = threading.get_ident()
        with _registry_lock:
            threads = _inflight.setdefault(id(obj), {})
            overlap = any(t != ident for t in threads)
            threads[ident] = threads.get(ident, 0) + 1
        return overlap

    def _exit_unguarded(self, obj: object) -> None:
        ident = threading.get_ident()
        with _registry_lock:
            threads = _inflight.get(id(obj))
            if threads is None:
                return
            depth = threads.get(ident, 0) - 1
            if depth <= 0:
                threads.pop(ident, None)
                if not threads:
                    _inflight.pop(id(obj), None)
            else:
                threads[ident] = depth

    def _checked(self, obj: object, op: str, access) -> object:
        lock = getattr(obj, self.lock_attr, None)
        if not isinstance(lock, TrackedRLock) or lock.owned():
            return access()
        if lock.held_by_other():
            _record(self.cls_name, self.name, op,
                    "the guarding lock was held by another thread")
            return access()
        overlapped = self._enter_unguarded(obj, op)
        try:
            if overlapped:
                _record(self.cls_name, self.name, op,
                        "another thread was simultaneously accessing guarded "
                        "state of the same instance off-lock")
            return access()
        finally:
            self._exit_unguarded(obj)

    # -- descriptor protocol -------------------------------------------------

    def __get__(self, obj: object, objtype: type | None = None):
        if obj is None:
            return self
        def access():
            d = obj.__dict__
            if self.store in d:
                return d[self.store]
            if self.name in d:  # instance predates install(); migrate
                return d[self.name]
            raise AttributeError(
                f"{type(obj).__name__!r} object has no attribute {self.name!r}"
            )
        return self._checked(obj, "read", access)

    def __set__(self, obj: object, value: object) -> None:
        self._checked(obj, "write", lambda: obj.__dict__.__setitem__(self.store, value))

    def __delete__(self, obj: object) -> None:
        self._checked(obj, "write", lambda: obj.__dict__.pop(self.store, None))


class _TrackedSharedMemory(shared_memory.SharedMemory):
    """SharedMemory recording create/unlink so leaks are attributable."""

    def __init__(self, name: str | None = None, create: bool = False,
                 size: int = 0) -> None:
        super().__init__(name=name, create=create, size=size)
        with _registry_lock:
            rec = _shm_records.setdefault(self.name, {"created": False, "unlinked": False})
            rec["created"] = rec["created"] or bool(create)

    def unlink(self) -> None:
        super().unlink()
        with _registry_lock:
            _shm_records.setdefault(self.name, {"created": False, "unlinked": False})[
                "unlinked"
            ] = True


# --------------------------------------------------------------------------
# install / uninstall
# --------------------------------------------------------------------------


def guard_class(cls: type, lock_attr: str, attrs: tuple[str, ...]) -> None:
    """Instrument `cls`: tracked lock + guarded-attribute descriptors.

    Safe to call only before instances exist (pre-existing instances keep
    working through a read fallback, but their lock stays untracked).
    """
    original_init = cls.__init__

    def sanitized_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if not isinstance(getattr(self, lock_attr, None), TrackedRLock):
            object.__setattr__(self, lock_attr, TrackedRLock())

    _patched.append((cls, "__init__", original_init))
    cls.__init__ = sanitized_init
    for attr in attrs:
        _patched.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, _GuardedAttr(attr, lock_attr, cls.__name__))


def _scan_shm_dir() -> frozenset[str]:
    try:
        return frozenset(
            n for n in os.listdir(_SHM_DIR) if n.startswith(_SHM_PREFIX)
        )
    except OSError:
        return frozenset()


def install() -> None:
    """Activate the sanitizer (idempotent).  Patches the registered
    guarded classes, the SharedMemory transport, and faulthandler."""
    global _installed, _orig_shared_memory, _shm_baseline
    if _installed:
        return
    _installed = True
    _shm_baseline = _scan_shm_dir()

    import importlib

    for module_name, cls_name, lock_attr, attrs in GUARDED_CLASSES:
        module = importlib.import_module(module_name)
        guard_class(getattr(module, cls_name), lock_attr, attrs)

    _orig_shared_memory = shared_memory.SharedMemory
    shared_memory.SharedMemory = _TrackedSharedMemory

    faulthandler.enable()
    timeout = os.environ.get("REPRO_SANITIZE_TIMEOUT", "").strip()
    if timeout:
        faulthandler.dump_traceback_later(float(timeout), exit=True)


def uninstall() -> None:
    """Undo :func:`install` (test isolation).  Instances created while
    sanitized must not be reused afterwards — their guarded values live
    in descriptor storage slots."""
    global _installed, _orig_shared_memory
    if not _installed:
        return
    _installed = False
    for cls, attr, original in reversed(_patched):
        if original is None:
            if attr in cls.__dict__:
                delattr(cls, attr)
        else:
            setattr(cls, attr, original)
    _patched.clear()
    if _orig_shared_memory is not None:
        shared_memory.SharedMemory = _orig_shared_memory
        _orig_shared_memory = None
    faulthandler.cancel_dump_traceback_later()
    reset()


def reset() -> None:
    """Clear recorded violations and shm bookkeeping (not the patches)."""
    global _shm_baseline
    with _registry_lock:
        _violations.clear()
        _inflight.clear()
        _shm_records.clear()
    _shm_baseline = _scan_shm_dir()


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def violations() -> list[Violation]:
    with _registry_lock:
        return list(_violations)


def _segment_exists(name: str) -> bool:
    if os.path.isdir(_SHM_DIR):
        return os.path.exists(os.path.join(_SHM_DIR, name))
    probe_cls = _orig_shared_memory or shared_memory.SharedMemory
    try:
        probe = probe_cls(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


def shm_leaks() -> list[str]:
    """Segments this process created, never unlinked, and still present."""
    with _registry_lock:
        candidates = [
            name for name, rec in _shm_records.items()
            if rec["created"] and not rec["unlinked"]
        ]
    return sorted(n for n in candidates if _segment_exists(n))


def stray_shm() -> list[str]:
    """Segments that appeared on the host since install() and persist —
    catches leaks from forked workers whose records died with them."""
    return sorted(_scan_shm_dir() - _shm_baseline)


def check(strict: bool = True) -> dict[str, list]:
    """Summarize sanitizer findings; raise AssertionError when strict."""
    report = {
        "lock_violations": violations(),
        "shm_leaks": shm_leaks(),
        "stray_shm": stray_shm(),
    }
    if strict and any(report.values()):
        lines = ["runtime sanitizer found violations:"]
        lines += [f"  {v.render()}" for v in report["lock_violations"]]
        lines += [f"  leaked shm segment: {n}" for n in report["shm_leaks"]]
        lines += [f"  stray shm segment: {n}" for n in report["stray_shm"]]
        raise AssertionError("\n".join(lines))
    return report


def dump_threads(file=None) -> None:
    """Print every live thread's stack (deadlock forensics)."""
    out = file or sys.stderr
    frames = sys._current_frames()
    for thread in threading.enumerate():
        frame = frames.get(thread.ident or -1)
        print(f"--- thread {thread.name} (ident {thread.ident}) ---", file=out)
        if frame is not None:
            traceback.print_stack(frame, file=out)
