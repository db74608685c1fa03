"""Command-line entry points mirroring the paper's workflow scripts.

The paper drives everything as::

    srun -n 32 python subsample.py case.yaml
    srun -n 8  python train.py case.yaml

Here the same case files drive :func:`subsample_main` and :func:`train_main`
(``python -m repro.cli subsample case.yaml --ranks 32``); ranks are simulated
threads.  Both commands are thin shells over the
:class:`repro.api.Experiment` facade — the same fluent chain available from
Python (``Experiment.from_case(path).with_ranks(32).subsample().train()``)
— so anything registered with ``register_sampler`` / ``register_selector``
is reachable from YAML.  ``--source`` picks the ingestion mode (catalog
in-memory, out-of-core shard directory, or ``sim`` for in-situ generation)
and ``--stream`` switches the subsample to the single-pass streaming
samplers — and, for ``train``, switches training to the stream-first path
(windows assembled incrementally off the merged stream, no resident
dataset).  ``repro-train`` also takes ``--checkpoint``/``--resume`` for
bit-deterministic interrupted fits and ``--tune N`` for the paper's
DeepHyper-style hyperparameter search.  The spec flags, the rules over
them and the spec → ``Experiment`` builder all come from
:mod:`repro.runspec`, shared with ``repro-submit`` and the serve runner.
Outputs keep the paper's greppable log contract (``CPU Energy``, ``Total
Energy Consumed``, ``Evaluation on test set``).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.api import build_model_for_case
from repro.data import SubsampleStore
from repro.runspec import SpecError, add_spec_flags, build_run, parse_spec

__all__ = ["main", "subsample_main", "train_main", "build_model_for_case"]


def subsample_main(argv: list[str] | None = None) -> int:
    """``subsample.py case.yaml`` equivalent."""
    parser = argparse.ArgumentParser(prog="repro-subsample", description=subsample_main.__doc__)
    add_spec_flags(parser, "subsample")
    parser.add_argument("--output_dir", default=None, help="store the subsample here")
    args = parser.parse_args(argv)
    spec, case = parse_spec(parser, "subsample", args)

    try:
        exp, source, fault_hook = build_run(spec, case, "subsample")
    except SpecError as exc:
        parser.error(str(exc))
    try:
        exp.subsample(
            mode=spec.mode,
            owned_shards=spec.owned_shards,
            on_rank_failure=spec.failure_policy,
            fault_hook=fault_hook,
        )
        result = exp.subsample_artifact.result
        print(exp.subsample_artifact.summary())
        failed = result.meta.get("failed_ranks") or []
        if failed:
            print(f"Merged partial streams: rank(s) {failed} died mid-span; "
                  "allocation reweighted by delivered mass")
        if args.output_dir and result.points is not None:
            store = SubsampleStore(args.output_dir)
            name = exp.case.shared.fileprefix.replace("/", "_") or "subsample"
            path = store.save(name, result.points)
            print(f"Saved subsample to {path} "
                  f"({store.reduction_factor(name, exp.source.nbytes()):.0f}x reduction)")
    finally:
        # Teardown: join any background prefetch thread the source owns.
        if source is not None and hasattr(source, "close"):
            source.close()
    return 0


def train_main(argv: list[str] | None = None) -> int:
    """``train.py case.yaml`` equivalent: subsample (if needed) then train."""
    parser = argparse.ArgumentParser(prog="repro-train", description=train_main.__doc__)
    add_spec_flags(parser, "train")
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resumable checkpoint here every --checkpoint-every "
             "epochs (model, optimizer, scheduler, RNG, feed cursor, "
             "energy counters)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="resume an interrupted fit from this checkpoint; the completed "
             "fit is bit-identical to an uninterrupted one",
    )
    args = parser.parse_args(argv)
    spec, case = parse_spec(parser, "train", args)
    # The checkpoint paths are this command's own options, not spec fields.
    if spec.kind == "tune" and (args.resume or args.checkpoint):
        parser.error("--tune runs many short fits; per-fit "
                     "--checkpoint/--resume do not apply (drop them)")
    if args.resume is not None and not os.path.isfile(
        args.resume if args.resume.endswith(".npz") else args.resume + ".npz"
    ):
        parser.error(f"--resume: no checkpoint at {args.resume!r}")
    if spec.checkpoint_every != 1 and not args.checkpoint:
        parser.error("--checkpoint-every needs --checkpoint PATH")

    try:
        exp, source, _ = build_run(spec, case, "train")
    except SpecError as exc:
        parser.error(str(exc))
    try:
        if spec.kind == "tune":
            exp.tune(n_trials=spec.tune_trials, strategy=spec.tune_strategy)
            print(exp.tune_artifact.summary())
            return 0
        exp.train(
            mode=spec.mode,
            resume=args.resume,
            checkpoint=args.checkpoint,
            checkpoint_every=spec.checkpoint_every,
        )
        if spec.mode == "stream":
            feed_meta = exp.train_artifact.result.meta.get("feed") or {}
            print(f"Streamed {feed_meta.get('samples', '?')} window samples "
                  f"({feed_meta.get('kind', 'StreamFeed')})")
        print(exp.train_artifact.result.report())
    finally:
        # Teardown: join any background prefetch thread the source owns.
        if source is not None and hasattr(source, "close"):
            source.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("subsample", "train", "serve", "submit"):
        print("usage: python -m repro.cli {subsample|train|serve|submit} "
              "[options]", file=sys.stderr)
        return 2
    cmd, rest = argv[0], argv[1:]
    if cmd in ("serve", "submit"):
        # Lazy: the serve package pulls in the HTTP/scheduler stack, which
        # plain subsample/train runs never need.
        from repro.serve.cli import serve_main, submit_main

        return serve_main(rest) if cmd == "serve" else submit_main(rest)
    return subsample_main(rest) if cmd == "subsample" else train_main(rest)


if __name__ == "__main__":
    raise SystemExit(main())
