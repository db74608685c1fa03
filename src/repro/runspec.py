"""One run spec: the single home of every run-option rule.

A run is described the same way on every surface — ``repro-subsample``,
``repro-train``, ``repro-submit``, the ``/v1/jobs`` JSON spec and the
library's :func:`~repro.sampling.pipeline.subsample`: the stage to run
(``kind``), the case snapshot, and the option fields of :class:`RunSpec`.

The dataclass field metadata is the only copy of the option table: each
field's flag and help, the commands that carry the flag, the kinds and
modes the field applies to, its bounds or choices, and its role —
``identity`` (hashed into the serve content key), ``source`` (identity
through the source fingerprint) or ``policy`` (execution policy, never
hashed).  Everything else is generated from it:

* :meth:`RunSpec.validate` states each rule once and rejects a non-default
  value in any field that does not apply to the spec's kind or mode;
* :func:`add_spec_flags` / :func:`parse_spec` — the spec flags of the three
  commands and their parsing;
* :meth:`RunSpec.from_json` — the strict ``/v1/jobs`` parser;
* :meth:`RunSpec.key_doc` — the serve content-key document, holding only
  the identity fields that apply to the spec's kind;
* :func:`build_run` — a spec to (``Experiment``, opened source, fault
  hook), shared by the CLI and the serve runner;
* :func:`check_stage` — the same rules for a facade stage call or (through
  :func:`check_call`) a direct library call, against its live source.

Messages use the caller's spelling: ``--owned-shards`` on the CLIs,
``owned_shards`` over JSON, ``nranks``/``fault_hook`` for library calls,
``with_backend``/``n_trials`` for the facade.
"""

from __future__ import annotations

import dataclasses
import sys
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field
from typing import TYPE_CHECKING

from repro.parallel.spmd import SPMD_BACKENDS

if TYPE_CHECKING:
    from repro.api import Experiment
    from repro.data.sources import SnapshotSource
    from repro.utils.config import CaseConfig

__all__ = [
    "KEY_SCHEMA",
    "RunSpec",
    "SpecError",
    "add_spec_flags",
    "build_run",
    "check_call",
    "check_stage",
    "given_flags",
    "parse_spec",
]

#: bump when the key document layout changes, so stores never serve
#: entries computed under a different identity scheme.
KEY_SCHEMA = 2
KINDS = ("subsample", "train", "tune")
MODES = ("batch", "stream")
COMMANDS = ("subsample", "train", "submit")
#: decoded shards an out-of-core or in-situ source keeps resident when a
#: spec leaves ``max_cached_shards`` unset
DEFAULT_MAX_CACHED = 2


class SpecError(ValueError):
    """A run spec is malformed or names an invalid combination."""


def _strategies() -> tuple[str, ...]:
    from repro.train.tuning import STRATEGIES

    return STRATEGIES


def _opt(default=MISSING, flag=None, *, cls=None, cmds=COMMANDS, kinds=KINDS,
         modes=MODES, role="identity", choices=None, least=None, above=None,
         says=None, why=None, peers=None, key=None, help=None, **argparse) -> dict:
    """The :func:`dataclasses.field` arguments of one option-table row.

    ``least``/``above`` bound the value (``says`` rewords the bound);
    ``why`` explains a mode restriction; ``peers`` marks a field that needs
    ``ranks >= 2`` and says why; ``key`` names the attribute the key
    document reads instead of the raw field; ``argparse`` holds extra
    ``add_argument`` keywords.
    """
    return {"default": default, "metadata": {
        "flag": flag, "cmds": cmds if flag else (), "cls": cls or type(default),
        "kinds": kinds, "modes": modes, "role": role, "choices": choices,
        "least": least, "above": above, "says": says, "why": why,
        "peers": peers, "key": key, "help": help, "argparse": argparse,
    }}


@dataclass(frozen=True)
class RunSpec:
    """One run: a stage, a case snapshot, and its options (module docstring)."""

    kind: str = field(**_opt(
        flag="--train", cls=str, cmds=("submit",), choices=KINDS,
        action="store_const", const="train",
        help="submit a train job (default: subsample)"))
    case: dict = field(**_opt(
        flag="case", cls=dict, help="YAML case file (repro-submit --resume takes none)"))
    seed: int = field(**_opt(0, "--seed", help="RNG seed of the dataset and every stage"))
    ranks: int = field(**_opt(
        1, "--ranks", least=1,
        help="simulated ranks: SPMD producers for a subsample, DDP ranks for a fit"))
    mode: str = field(**_opt(
        "batch", "--stream", choices=MODES, action="store_const", const="stream",
        help="stream mode: single-pass streaming subsample (reservoir / online "
             "MaxEnt; with --ranks N each rank streams its own snapshot partition "
             "and the per-rank samples merge by weighted draw) and, for a fit, "
             "stream-first training off the merged stream"))
    backend: str = field(**_opt(
        "thread", "--backend", role="policy", choices=SPMD_BACKENDS,
        help="SPMD substrate for multi-rank runs: 'thread' (deterministic "
             "virtual-time modeling, default) or 'process' (forked workers with "
             "shared-memory transport — real wall-clock parallelism, "
             "byte-identical results)"))
    source: str | None = field(**_opt(
        None, "--source", cls=str,
        help="ingestion source: 'sim' (in-situ generation from the case dtype), "
             "a shard directory written by save_dataset() (any codec, "
             "auto-detected), or an open_source() spec such as 'raw+dir://DIR' "
             "or 'remote://DIR?latency_s=0.01'; default generates the catalog "
             "dataset in memory"))
    scale: float = field(**_opt(1.0, "--scale", above=0, help="dataset resolution scale"))
    epochs: int | None = field(**_opt(
        None, "--epochs", cls=int, cmds=("train", "submit"), kinds=("train", "tune"),
        least=1, help="override the case's epoch budget"))
    max_cached_shards: int | None = field(**_opt(
        None, "--max-cached-shards", cls=int, role="source", least=1,
        help="decoded snapshots resident at once for out-of-core/in-situ "
             f"sources (default {DEFAULT_MAX_CACHED})"))
    prefetch: int = field(**_opt(
        0, "--prefetch", role="source", least=0,
        help="shards to decode ahead in a background thread (shard-directory "
             "sources only; overlaps decode with compute)"))
    owned_shards: bool = field(**_opt(
        False, "--owned-shards", cmds=("subsample", "submit"), kinds=("subsample",),
        modes=("stream",), action="store_true",
        why="the two-phase batch pipeline has no per-rank shard ownership",
        peers="a single producer already owns every shard",
        help="with --stream --ranks N over a shard directory: give each rank "
             "its own disjoint shard set (private LRU + prefetcher) instead of "
             "one shared cache"))
    on_rank_failure: str | None = field(**_opt(
        None, "--on-rank-failure", cls=str, cmds=("subsample", "submit"),
        kinds=("subsample",), modes=("stream",), choices=("reweight", "raise"),
        key="failure_policy", why="batch mode has no partial-stream merge",
        peers="a single producer has no rank to lose",
        help="stream-mode policy when a producer rank dies mid-span: "
             "'reweight' merges the partial streams by delivered mass, "
             "'raise' (default) fails the draw"))
    stream_shuffle: int = field(**_opt(
        0, "--stream-shuffle", cmds=("submit",), kinds=("train",), modes=("stream",),
        least=0, why="only stream feeds shuffle through a buffer",
        help="shuffle-buffer capacity of stream-mode training feeds "
             "(0 keeps arrival order)"))
    inject_rank_failure: int | None = field(**_opt(
        None, "--inject-rank-failure", cls=int, cmds=("subsample", "submit"),
        kinds=("subsample",), modes=("stream",), metavar="RANK",
        why="only stream producers die mid-span",
        peers="a single producer has no peers to survive it",
        help="testing: kill stream producer RANK after its first chunk "
             "(exercises --on-rank-failure)"))
    tune_trials: int | None = field(**_opt(
        None, "--tune", cls=int, cmds=("train", "submit"), kinds=("tune",), least=1,
        says="needs at least 1 trial", metavar="N",
        help="instead of one fit, run N hyperparameter-search trials "
             "(lr/batch, TPE-style) and report the best configuration"))
    tune_strategy: str = field(**_opt("bayes", kinds=("tune",), choices=_strategies))
    retries: int = field(**_opt(
        0, "--retries", cmds=("submit",), role="policy", least=0,
        help="re-run the job this many times if an SPMD worker dies "
             "(deterministic errors never retry)"))
    checkpoint_every: int = field(**_opt(
        1, "--checkpoint-every", cmds=("train", "submit"), kinds=("train",),
        role="policy", least=1, says="needs a positive epoch count", metavar="N",
        help="epochs between checkpoint writes (default 1)"))

    # ---- parsing ----------------------------------------------------------

    @classmethod
    def from_json(cls, doc: object) -> RunSpec:
        """Parse a ``/v1/jobs`` document; unknown fields and mistyped values
        are errors, not dropped or coerced."""
        if not isinstance(doc, dict):
            raise SpecError(f"job spec must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - set(_BY_NAME))
        if unknown:
            raise SpecError(f"unknown job spec field(s) {unknown}; expected a "
                            f"subset of {sorted(_BY_NAME)}")
        for name in ("kind", "case"):
            if name not in doc:
                raise SpecError(f"job spec needs {name!r}")
        for name, value in doc.items():
            f = _BY_NAME[name]
            want = f.metadata["cls"]
            if value is None and f.default is None:
                continue
            numeric = want is float and isinstance(value, int)
            if isinstance(value, bool) is not (want is bool) or not (
                    isinstance(value, want) or numeric):
                null = " or null" if f.default is None else ""
                raise SpecError(f"{name} must be {want.__name__}{null}, got "
                                f"{type(value).__name__}")
        return cls(**doc)

    @classmethod
    def from_args(cls, command: str, args) -> RunSpec:
        """The spec ``command``'s parsed flags describe (loads the case file)."""
        from repro.utils.config import CaseConfig

        values = {f.name: getattr(args, f.name) for f in _FIELDS
                  if command in f.metadata["cmds"]}
        chosen = values.pop("kind", None)
        if values.get("tune_trials") is not None:
            if chosen == "train":
                raise SpecError("--tune and --train are different job kinds (pick one)")
            chosen = "tune"
        kind = chosen or ("train" if command == "train" else "subsample")
        try:
            values["case"] = CaseConfig.from_file(values["case"]).to_dict()
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise SpecError(f"invalid case config {values['case']!r}: {exc}") from None
        return cls(kind=kind, **values)

    # ---- validation -------------------------------------------------------

    def validate(self, surface: str = "json") -> CaseConfig:
        """Check every rule; returns the parsed case.

        Raises :class:`SpecError` spelled for ``surface``: ``"json"`` or a
        command name (``"subsample"``, ``"train"``, ``"submit"``).
        """
        from repro.utils.config import CaseConfig

        say = _SAY[surface]
        try:
            case = CaseConfig.from_dict(self.case)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise SpecError(f"invalid case config: {exc}") from None
        sharded = bool(self.source) and self.source != "sim"
        self._check(say, sharded=sharded, method=case.subsample.method)
        return case

    def _check(self, say: _Say, *, sharded: bool, method: str) -> None:
        """Every option rule, spelled by ``say``; raises :class:`SpecError`."""
        for f in _FIELDS:
            m, value = f.metadata, getattr(self, f.name)
            if value is None or value == f.default:  # defaults are valid
                continue
            choices = m["choices"]() if callable(m["choices"]) else m["choices"]
            if choices and value not in choices:
                raise SpecError(f"{say(f.name)} must be one of {'|'.join(choices)}, "
                                f"got {value!r}")
            if m["least"] is not None and value < m["least"]:
                says = m["says"] or f"must be >= {m['least']}"
                raise SpecError(f"{say(f.name)} {says}")
            if m["above"] is not None and not value > m["above"]:
                raise SpecError(f"{say(f.name)} must be > {m['above']}")
        for f in _FIELDS:
            m = f.metadata
            if f.default is MISSING or getattr(self, f.name) == f.default:
                continue
            if self.kind not in m["kinds"]:
                kinds = " or ".join(say.kinds.get(k, k) for k in m["kinds"])
                raise SpecError(f"{say(f.name)} applies only to {kinds}")
            if self.mode not in m["modes"]:
                raise SpecError(f"{say(f.name)} requires {say.stream} ({m['why']})")
            if m["peers"] and self.ranks < 2:
                raise SpecError(f"{say(f.name)} requires {say('ranks')} >= 2 "
                                f"({m['peers']})")
        if self.prefetch and not sharded:
            what = "in-situ simulation" if self.source == "sim" else "in-memory catalog"
            raise SpecError(
                f"{say('prefetch')} applies only to shard-directory sources; the "
                f"{what} source has no shards to decode ahead (drop "
                f"{say('prefetch')} or add {say('source')} <shard-dir>)")
        if self.owned_shards and not sharded:
            raise SpecError(f"{say('owned_shards')} requires {say.shard_source}")
        victim = self.inject_rank_failure
        if victim is not None and not 0 <= victim < self.ranks:
            raise SpecError(f"{say('inject_rank_failure')} rank {victim} out of "
                            f"range for {say('ranks')} {self.ranks}")
        if self.kind == "tune":
            tune = say.kinds.get("tune", "tune")
            if self.tune_trials is None:
                raise SpecError(f"{tune} needs {say('tune_trials')} >= 1")
            if self.mode == "stream":
                raise SpecError(f"{tune} searches over resident training arrays; "
                                f"it cannot combine with {say.stream} (drop one)")
            for name, value in (("ranks", self.ranks), ("backend", self.backend)):
                if value != _BY_NAME[name].default:
                    raise SpecError(f"{tune} trials run serially; {say(name)} "
                                    f"{value} would be silently ignored (drop it)")
        if self.mode == "stream":
            from repro.sampling.base import stream_sampler_cls

            if method == "full":
                raise SpecError("method 'full' keeps dense cubes and has no "
                                f"single-pass streaming analogue; drop {say.stream}")
            try:
                stream_sampler_cls(method)
            except KeyError as exc:  # the stream registry has no analogue
                raise SpecError(f"{say.stream} needs a method with a streaming "
                                f"sampler: {exc.args[0]}") from None

    # ---- derived values ---------------------------------------------------

    @property
    def cached_shards(self) -> int:
        """``max_cached_shards`` with its default applied."""
        if self.max_cached_shards is None:
            return DEFAULT_MAX_CACHED
        return self.max_cached_shards

    @property
    def failure_policy(self) -> str:
        """``on_rank_failure`` as the pipeline takes it (unset is ``"raise"``)."""
        return self.on_rank_failure or "raise"

    # ---- identity ---------------------------------------------------------

    def key_doc(self) -> dict:
        """The canonical identity document hashed by :meth:`content_key`.

        Holds the identity fields that apply to the spec's kind.  The case
        snapshot is round-tripped through CaseConfig so defaulted fields and
        dict ordering hash alike; the source and its cache knobs fold into
        one structural fingerprint.  Execution policy (backend, retries,
        checkpoint cadence) never enters: results are byte-identical across
        it.
        """
        from repro.serve.keys import source_fingerprint
        from repro.utils.config import CaseConfig

        case = CaseConfig.from_dict(self.case)
        doc: dict = {"schema": KEY_SCHEMA}
        for f in _FIELDS:
            m = f.metadata
            if m["role"] == "identity" and self.kind in m["kinds"]:
                value = getattr(self, m["key"] or f.name)
                if value is not None and m["cls"] in (int, float, bool):
                    value = m["cls"](value)
                doc[f.name] = value
        doc["case"] = case.to_dict()
        doc["source"] = source_fingerprint(
            self.source, dtype=case.shared.dtype, scale=self.scale, seed=self.seed,
            max_cached=self.cached_shards, prefetch=self.prefetch,
        )
        return doc

    def content_key(self) -> str:
        """sha256 identity of this run (see :meth:`key_doc`)."""
        from repro.serve.keys import content_key

        return content_key(self.key_doc())

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class _Say:
    """How one surface spells field names and the conditions rules cite."""

    names: dict
    kinds: dict
    stream: str
    shard_source: str

    def __call__(self, name: str) -> str:
        return self.names.get(name, name)


_FIELDS = dataclasses.fields(RunSpec)
_BY_NAME = {f.name: f for f in _FIELDS}
_FLAGS = {f.name: f.metadata["flag"] for f in _FIELDS if f.metadata["flag"]}
_CLI_SHARDS = ("--source <shard-dir> (only save_dataset() shard directories can "
               "be split into owned sets)")
_LIVE_SHARDS = "a ShardDirSource (a save_dataset shard directory)"
_SAY = {
    "json": _Say({}, {k: f"kind={k!r}" for k in KINDS}, "mode='stream'",
                 "a shard-directory source (not the catalog or 'sim')"),
    "subsample": _Say(_FLAGS, {}, "--stream", _CLI_SHARDS),
    "train": _Say(_FLAGS, {"train": "fits without --tune", "tune": "--tune"},
                  "--stream", _CLI_SHARDS),
    "submit": _Say(_FLAGS, {"subsample": "subsample jobs", "train": "--train jobs",
                            "tune": "--tune"}, "--stream", _CLI_SHARDS),
    "library": _Say({"ranks": "nranks", "inject_rank_failure": "fault_hook",
                     "max_cached_shards": "max_cached"}, {},
                    "mode='stream'", _LIVE_SHARDS),
    # Experiment stage calls; train() and tune() spell ranks with_train_ranks
    "facade": _Say({"stream_shuffle": "with_stream_shuffle", "backend": "with_backend",
                    "tune_trials": "n_trials", "tune_strategy": "strategy",
                    "inject_rank_failure": "fault_hook", "max_cached_shards": "max_cached"},
                   {k: f"{k}()" for k in KINDS}, "mode='stream'", _LIVE_SHARDS),
}


def _flag_default(f: dataclasses.Field):
    return None if f.default is MISSING else f.default


# ---- command line -------------------------------------------------------------


def add_spec_flags(parser, command: str) -> None:
    """Add ``command``'s spec flags (``subsample``/``train``/``submit``)."""
    for f in _FIELDS:
        m = f.metadata
        if command not in m["cmds"]:
            continue
        if f.name == "case":
            optional = {"nargs": "?", "default": None} if command == "submit" else {}
            parser.add_argument("case", help=m["help"], **optional)
            continue
        kw = dict(m["argparse"])
        if "action" not in kw:  # argparse passes strings through as they are
            kw.update(type=None if m["cls"] is str else m["cls"], choices=m["choices"])
        parser.add_argument(m["flag"], dest=f.name, default=_flag_default(f),
                            help=m["help"], **kw)


def given_flags(command: str, args) -> list[str]:
    """The spec flags of ``command`` that ``args`` sets away from their defaults."""
    return [f.metadata["flag"] for f in _FIELDS if command in f.metadata["cmds"]
            and getattr(args, f.name) != _flag_default(f)]


def parse_spec(parser, command: str, args) -> tuple[RunSpec, CaseConfig]:
    """The validated spec and case ``command``'s flags name.

    An invalid combination exits through ``parser.error`` (status 2) with
    the flag spelling; no-op flags print a warning.
    """
    try:
        spec = RunSpec.from_args(command, args)
        case = spec.validate(command)
    except SpecError as exc:
        parser.error(str(exc))
    if spec.max_cached_shards is not None and spec.source is None:
        print("warning: --max-cached-shards has no effect on the in-memory catalog "
              "source (everything is resident); add --source <shard-dir> or "
              "--source sim", file=sys.stderr)
    if spec.backend == "process" and spec.ranks < 2:
        print("warning: --backend process has no effect with --ranks 1 (single-rank "
              "runs execute inline on a serial communicator)", file=sys.stderr)
    return spec, case


# ---- running ----------------------------------------------------------------


def build_run(spec: RunSpec, case: CaseConfig, surface: str) -> tuple[
        Experiment, SnapshotSource | None, Callable[..., bool] | None]:
    """A validated spec → (Experiment, the source it opened, fault hook).

    The experiment comes from :meth:`~repro.api.Experiment.from_spec`.  The
    opened source is checked by :func:`check_stage` at once, so a rule that
    needs the live source is a :class:`SpecError` spelled for ``surface``
    (a command name or ``"json"``); the source is closed if it is rejected.
    Otherwise the caller runs the stage and closes the source.  The fault
    hook (for ``inject_rank_failure``) kills the victim producer after its
    first chunk.
    """
    from repro.api import Experiment

    exp = Experiment.from_spec(spec, case)
    source = None
    if spec.source == "sim":
        from repro.data import stream_dataset

        source = stream_dataset(case.shared.dtype, scale=spec.scale, seed=spec.seed,
                                max_cached=spec.cached_shards)
    elif spec.source is not None:
        from repro.data import open_source

        source = open_source(spec.source, max_cached=spec.cached_shards,
                             prefetch=spec.prefetch)
    try:
        check_stage(spec, source, case.subsample.method, surface)
    except SpecError:
        if source is not None and hasattr(source, "close"):
            source.close()
        raise
    if source is not None:
        exp.with_source(source)
    fault_hook = None
    if spec.inject_rank_failure is not None:
        victim = spec.inject_rank_failure

        def fault_hook(rank, snapshots_done=0, rows_fed=0):
            return rank == victim and rows_fed > 0

    return exp, source, fault_hook


def check_call(source, config: CaseConfig, *, mode: str, nranks: int, backend: str,
               owned_shards: bool, on_rank_failure: str, fault_hook) -> None:
    """The spec rules for a direct library subsample call.

    :func:`~repro.sampling.pipeline.subsample` and
    :func:`~repro.sampling.pipeline.run_stream_subsample` call this with
    their own arguments; a ``fault_hook`` counts as an injected failure.
    """
    spec = RunSpec(
        kind="subsample", case={}, ranks=nranks, mode=mode, backend=backend,
        owned_shards=owned_shards,
        on_rank_failure=None if on_rank_failure == "raise" else on_rank_failure,
        inject_rank_failure=None if fault_hook is None else 0,
    )
    check_stage(spec, source, config.subsample.method, "library")


def check_stage(spec: RunSpec, source: SnapshotSource | None, method: str,
                surface: str) -> None:
    """The spec rules for a stage call (``"library"`` or ``"facade"``) or
    for the source :func:`build_run` opened for a command or a JSON spec.

    A :class:`~repro.data.sources.ShardDirSource` is a shard source; ``None``
    is the catalog source a facade has not built yet.  One rule needs the
    live source: a :class:`~repro.data.sources.SimulationSource` that replays
    on backstep cannot serve the interleaved requests of several ranks that
    share it — a subsample's or a stream fit's.  A batch fit's ranks read
    arrays built once in the caller, so they may.
    """
    from repro.data.sources import ShardDirSource, SimulationSource

    say = _SAY[surface]
    if surface == "facade" and spec.kind != "subsample":
        say = dataclasses.replace(say, names={**say.names, "ranks": "with_train_ranks"})
    got = "the in-memory catalog" if source is None else type(source).__name__
    say = dataclasses.replace(say, shard_source=f"{say.shard_source}; got {got}")
    spec._check(say, sharded=isinstance(source, ShardDirSource), method=method)
    if ((spec.kind == "subsample" or spec.mode == "stream")
            and isinstance(source, SimulationSource)
            and spec.ranks > 1 and source.max_cached < source.n_snapshots):
        ranks = say("ranks")
        raise SpecError(
            "a SimulationSource with max_cached < n_snapshots would replay the "
            f"simulation for nearly every cross-rank access under {ranks}="
            f"{spec.ranks}; use {ranks}=1, raise {say('max_cached_shards')} to >= "
            f"{source.n_snapshots}, or shard the stream to disk first"
        )
