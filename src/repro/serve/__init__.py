"""repro-serve — subsampling/training as a long-lived service.

The ROADMAP's "millions of users" direction: a stdlib-only HTTP daemon
that accepts subsample/train/tune jobs as JSON specs, validates them by
the same :class:`repro.runspec.RunSpec` rules as the CLI, schedules
them over a bounded worker pool on the SPMD substrate, and deduplicates
repeated work by content key against an on-disk artifact store — a
repeated request returns the cached artifact byte-identical to a direct
``Experiment`` run, and an in-flight duplicate attaches to the running
job instead of forking a second compute.

Layers (each importable standalone)::

    keys.py       canonical JSON + sha256 content keys (the dedupe primitive)
    jobs.py       JobSpec — the benchmark's name for repro.runspec.RunSpec
    store.py      ArtifactStore — content-keyed on-disk artifact cache
    scheduler.py  Scheduler + AdmissionPolicy — queue, worker pool, budget
    runner.py     execute_job — one job spec -> one Artifact
    server.py     ReproServer — the HTTP surface
    client.py     ServeClient — stdlib polling client
    cli.py        repro-serve / repro-submit console entry points
"""

from repro.serve.client import ServeClient, ServeError
from repro.runspec import RunSpec, SpecError
from repro.serve.keys import canonical_json, content_key, source_fingerprint
from repro.serve.scheduler import AdmissionPolicy, Scheduler
from repro.serve.server import ReproServer
from repro.serve.store import ArtifactStore

__all__ = [
    "AdmissionPolicy",
    "ArtifactStore",
    "ReproServer",
    "RunSpec",
    "Scheduler",
    "ServeClient",
    "ServeError",
    "SpecError",
    "canonical_json",
    "content_key",
    "source_fingerprint",
]
