"""Console entry points: ``repro-serve`` (daemon) and ``repro-submit``
(client).

``repro-serve`` prints one greppable line once it is accepting
connections (``repro-serve listening on http://HOST:PORT``), runs until
SIGTERM/SIGINT or ``POST /v1/shutdown``, then drains: queued jobs are
cancelled, in-flight train jobs park at a resumable checkpoint, and the
final per-job disposition is printed as one JSON summary line
(``repro-serve shutdown: {...}``) before a clean exit.

``repro-submit`` carries the spec flags of ``repro-subsample`` /
``repro-train`` (all generated from :class:`repro.runspec.RunSpec`), posts
the job spec, and (by default) polls to completion and prints the result;
``--output`` downloads the artifact.  Invalid combinations are rejected up
front by the same rules the server applies, before any request is sent.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

__all__ = ["serve_main", "submit_main"]


# ---------------------------------------------------------------- server ----

def serve_main(argv: list[str] | None = None) -> int:
    """Run the repro-serve daemon (see module docstring)."""
    parser = argparse.ArgumentParser(prog="repro-serve",
                                     description=serve_main.__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8750,
                        help="TCP port (0 picks an ephemeral port, printed "
                             "in the listening line)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads executing jobs (each job may "
                             "additionally fork SPMD rank processes)")
    parser.add_argument("--rank-budget", type=int, default=4,
                        help="summed SPMD ranks running jobs may pin at once "
                             "(the admission knapsack's capacity)")
    parser.add_argument("--max-job-ranks", type=int, default=None,
                        help="reject any single job needing more ranks than "
                             "this (default: the rank budget)")
    parser.add_argument("--max-queued", type=int, default=64,
                        help="backlog bound; beyond it submissions get 429")
    parser.add_argument("--z-margin", type=float, default=0.0,
                        help="chance-constraint safety factor inflating each "
                             "job's nominal cost (0 = admit on the mean)")
    parser.add_argument("--store", default="serve-store",
                        help="artifact cache directory (content-keyed)")
    parser.add_argument("--spool", default=None,
                        help="per-job work directory (default: STORE/spool)")
    parser.add_argument("--drain-timeout", type=float, default=120.0,
                        help="seconds to wait for in-flight jobs to park at "
                             "a checkpoint during shutdown")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers needs at least 1 worker")
    if args.rank_budget < 1:
        parser.error("--rank-budget needs at least 1 rank")

    from repro.serve.scheduler import AdmissionPolicy, Scheduler
    from repro.serve.server import ReproServer
    from repro.serve.store import ArtifactStore

    store = ArtifactStore(args.store)
    spool = args.spool or os.path.join(store.root, "spool")
    scheduler = Scheduler(
        store, spool=spool, workers=args.workers,
        policy=AdmissionPolicy(rank_budget=args.rank_budget,
                               max_job_ranks=args.max_job_ranks,
                               max_queued=args.max_queued,
                               z_margin=args.z_margin),
    )
    server = ReproServer(args.host, args.port, scheduler)
    server.start()
    print(f"repro-serve listening on {server.url} "
          f"(store={store.root}, workers={args.workers}, "
          f"rank_budget={args.rank_budget})", flush=True)

    def _on_signal(signum, frame):
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    while not server.wait_shutdown(timeout=1.0):
        pass
    print("repro-serve draining (queued jobs cancel, in-flight train jobs "
          "checkpoint) ...", flush=True)
    summary = server.close(timeout=args.drain_timeout)
    print("repro-serve shutdown: " + json.dumps(summary, sort_keys=True),
          flush=True)
    return 0


# ---------------------------------------------------------------- client ----

def submit_main(argv: list[str] | None = None) -> int:
    """Submit a job to a running repro-serve and (optionally) await it."""
    from repro.runspec import add_spec_flags, given_flags, parse_spec

    parser = argparse.ArgumentParser(prog="repro-submit",
                                     description=submit_main.__doc__)
    add_spec_flags(parser, "submit")
    parser.add_argument("--url", default="http://127.0.0.1:8750",
                        help="repro-serve base URL")
    parser.add_argument("--resume", default=None, metavar="JOB_ID",
                        help="continue a drained (checkpointed) train job")
    parser.add_argument("--wait", dest="wait", action="store_true",
                        default=True, help="poll until the job finishes "
                                           "(default)")
    parser.add_argument("--no-wait", dest="wait", action="store_false",
                        help="submit and exit immediately")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="--wait poll deadline in seconds")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="download the artifact here after completion")
    parser.add_argument("--json", action="store_true",
                        help="print the final job snapshot as JSON")
    args = parser.parse_args(argv)
    spec = None
    if args.resume is not None:
        given = given_flags("submit", args)
        if given:
            parser.error(
                "--resume continues an already-checkpointed job by id; job "
                f"spec arguments ({', '.join(given)}) do not apply (the "
                "server re-uses the original spec)"
            )
    elif args.case is None:
        parser.error("a case YAML file is required (or --resume JOB_ID)")
    else:
        spec, _ = parse_spec(parser, "submit", args)
    if args.output and not args.wait:
        parser.error("--output downloads the finished artifact, which needs "
                     "--wait (drop --no-wait)")

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        if spec is None:
            job = client.resume(args.resume)
        else:
            job = client.submit(spec)
        if args.wait and job["status"] not in ("done", "failed", "cancelled"):
            job = client.wait(job["id"], timeout=args.timeout)
        if args.output and job["status"] == "done":
            path = client.fetch_artifact(job["id"], args.output)
            job = dict(job, artifact_saved=path)
    except ServeError as exc:
        print(f"repro-submit: {exc}"
              + (f" (HTTP {exc.status})" if exc.status else ""),
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(job, sort_keys=True))
    else:
        _print_human(job)
    return 0 if job["status"] in ("done", "checkpointed", "queued",
                                  "running") else 1


def _print_human(job: dict) -> None:
    flags = []
    if job.get("cache_hit"):
        flags.append("cache hit — no new compute")
    if job.get("attached"):
        flags.append("attached to in-flight job")
    line = f"job {job['id']}: {job['status']}"
    if flags:
        line += f" ({'; '.join(flags)})"
    print(line)
    if job.get("error"):
        print(f"  error: {job['error']}")
    result = job.get("result") or {}
    for key in ("n_samples", "epochs_run", "best_test_loss", "trials",
                "virtual_time", "total_energy"):
        if result.get(key) is not None:
            print(f"  {key}: {result[key]}")
    if job.get("artifact_saved"):
        print(f"  artifact: {job['artifact_saved']}")
    if job.get("resumable"):
        print(f"  resumable: repro-submit --resume {job['id']}")


if __name__ == "__main__":
    raise SystemExit(serve_main())
