"""One table of invalid run specs, each rejected on every surface that can
express it: ``repro-subsample`` / ``repro-train``, ``repro-submit``,
``RunSpec.from_json(doc).validate()``, a live ``POST /v1/jobs``, the
library's ``subsample()`` and an ``Experiment`` stage call.

Each row is one invalid spec and names its rule once.  A ``drift`` row was
accepted by at least one of those surfaces while each kept its own copy of
the option rules (the knob then ran ignored, or failed only at run time);
every other row pins a rule some surface already held.  Rules over a
command's own options (``--checkpoint``/``--resume`` on ``repro-train``;
``--resume``, ``--output`` and ``--tune`` with ``--train`` on
``repro-submit``) and the live-source ``SimulationSource`` replay check are
not spec rules; tests/test_cli.py, tests/serve/test_serve_submit.py and the
sampling suites pin them.

The ``Experiment`` column leaves out the rows the facade cannot spell:
``kind``, ``retries`` and ``prefetch``; the stream-producer knobs on a fit;
``checkpoint_every`` and ``mode`` on ``tune()``; a ``fault_hook`` victim out
of range (the hook names no rank); and ``tune_trials`` on a subsample.  It
also leaves out ``seed-integer`` (a JSON type rule), ``case-valid``
(``CaseConfig`` rejects a bad case before any experiment exists), and
``epochs`` and ``stream_shuffle`` on a subsample stage, which the facade
holds for a later fit.
"""

import re

import pytest

from repro.api import Experiment
from repro.cli import subsample_main, train_main
from repro.data import InMemorySource, ShardDirSource, build_dataset, save_dataset
from repro.runspec import RunSpec, SpecError
from repro.sampling import subsample
from repro.serve.cli import submit_main
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import Scheduler
from repro.serve.server import ReproServer
from repro.serve.store import ArtifactStore
from repro.utils.config import CaseConfig
from repro.utils.miniyaml import loads

CASE_YAML = """
shared:
  dims: 3
  dtype: sst-binary
  input_vars: [u, v, w]
  output_vars: p
  cluster_var: pv
  gravity: z
  fileprefix: "runspec-test"
subsample:
  hypercubes: maxent
  num_hypercubes: 3
  method: maxent
  num_samples: 64
  num_clusters: 4
  nxsl: 8
  nysl: 8
  nzsl: 8
train:
  epochs: 2
  batch: 4
  window: 1
  arch: MLP_transformer
"""

#: stands in for the module's shard directory inside a row's spec
SHARDS = "<shards>"

#: spec field -> the flag spelling every command uses for it
FLAG = {
    "seed": "--seed", "ranks": "--ranks", "mode": "--stream", "backend": "--backend",
    "source": "--source", "scale": "--scale", "epochs": "--epochs",
    "max_cached_shards": "--max-cached-shards", "prefetch": "--prefetch",
    "owned_shards": "--owned-shards", "on_rank_failure": "--on-rank-failure",
    "stream_shuffle": "--stream-shuffle", "inject_rank_failure": "--inject-rank-failure",
    "tune_trials": "--tune", "retries": "--retries", "checkpoint_every": "--checkpoint-every",
    "case": "case", "kind": "--train",
}
#: the spec fields each command carries as flags
CARRIES = {
    "subsample": {"seed", "ranks", "mode", "backend", "source", "scale",
                  "max_cached_shards", "prefetch", "owned_shards", "on_rank_failure",
                  "inject_rank_failure"},
    "train": {"seed", "ranks", "mode", "backend", "source", "scale", "epochs",
              "max_cached_shards", "prefetch", "tune_trials", "checkpoint_every"},
    "submit": set(FLAG) - {"case", "kind"},
}


def kill_rank_1(rank, snapshots_done=0, rows_fed=0):
    return rank == 1 and rows_fed > 0


#: spec field -> the facade's spelling, where it differs from the field name
SAYS_FACADE = {"backend": "with_backend", "stream_shuffle": "with_stream_shuffle",
               "tune_trials": "n_trials", "tune_strategy": "strategy",
               "inject_rank_failure": "fault_hook"}


class Row:
    """One invalid spec: ``doc`` overrides the base job document, ``case``
    edits the case snapshot, ``call`` is the ``subsample()`` spelling and
    ``exp`` the ``Experiment`` one (each None when the row has none), and
    ``says`` what every rejection must name."""

    def __init__(self, rule, says, doc, *, case=None, call=None, call_says=None,
                 exp=None, exp_says=None, drift=False):
        self.rule, self.says, self.doc = rule, says, doc
        self.case = case or {}
        self.call, self.call_says, self.drift = call, call_says or says, drift
        self.exp, self.exp_says = exp, exp_says or SAYS_FACADE.get(says, says)

    def __repr__(self):
        return self.rule


ROWS = [
    Row("kind-choice", "kind", {"kind": "bogus"}),
    Row("case-valid", "case", {}, case={"hypercubes": "bogus"}),
    Row("mode-choice", "mode", {"mode": "banana"},
        call={"data": "memory", "mode": "banana"},
        exp=lambda e: e.train(mode="banana")),
    Row("backend-choice", "backend", {"backend": "gpu"},
        call={"data": "memory", "backend": "gpu"},
        exp=lambda e: e.with_backend("gpu").subsample()),
    Row("ranks-at-least-1", "ranks", {"ranks": 0},
        call={"data": "memory", "nranks": 0}, call_says="nranks",
        exp=lambda e: e.with_ranks(0).subsample()),
    Row("seed-integer", "seed", {"seed": 1.5}),
    Row("scale-positive", "scale", {"scale": 0.0},
        exp=lambda e: e.with_scale(0.0).subsample()),
    Row("epochs-at-least-1", "epochs", {"kind": "train", "epochs": 0},
        exp=lambda e: e.with_epochs(0).train()),
    Row("retries-at-least-0", "retries", {"retries": -1}),
    Row("checkpoint-every-positive", "checkpoint_every",
        {"kind": "train", "checkpoint_every": 0},
        exp=lambda e: e.train(checkpoint_every=0), drift=True),
    Row("stream-shuffle-at-least-0", "stream_shuffle",
        {"kind": "train", "mode": "stream", "stream_shuffle": -1},
        exp=lambda e: e.with_stream_shuffle(-1).train(mode="stream")),
    Row("tune-trials-at-least-1", "tune_trials", {"kind": "tune", "tune_trials": 0},
        exp=lambda e: e.tune(n_trials=0)),
    Row("tune-needs-trials", "tune_trials", {"kind": "tune"},
        exp=lambda e: e.tune(n_trials=None)),
    Row("prefetch-needs-shard-source", "prefetch", {"prefetch": 2}),
    Row("owned-shards-needs-stream", "owned_shards",
        {"owned_shards": True, "source": SHARDS, "ranks": 2},
        call={"data": "shards", "nranks": 2, "owned_shards": True},
        exp=lambda e: e.subsample(ranks=2, owned_shards=True)),
    Row("owned-shards-needs-shard-source", "owned_shards",
        {"owned_shards": True, "mode": "stream", "ranks": 2},
        call={"data": "memory", "mode": "stream", "nranks": 2, "owned_shards": True},
        exp=lambda e: e.subsample(mode="stream", ranks=2, owned_shards=True)),
    Row("owned-shards-needs-peers", "owned_shards",
        {"owned_shards": True, "mode": "stream", "source": SHARDS},
        call={"data": "shards", "mode": "stream", "owned_shards": True},
        exp=lambda e: e.subsample(mode="stream", owned_shards=True)),
    Row("on-rank-failure-choice", "on_rank_failure",
        {"on_rank_failure": "retry", "mode": "stream", "ranks": 2},
        call={"data": "memory", "mode": "stream", "nranks": 2,
              "on_rank_failure": "retry"},
        exp=lambda e: e.subsample(mode="stream", ranks=2, on_rank_failure="retry")),
    Row("on-rank-failure-needs-stream", "on_rank_failure",
        {"on_rank_failure": "reweight", "ranks": 2},
        call={"data": "memory", "nranks": 2, "on_rank_failure": "reweight"},
        exp=lambda e: e.subsample(ranks=2, on_rank_failure="reweight")),
    Row("on-rank-failure-needs-peers", "on_rank_failure",
        {"on_rank_failure": "reweight", "mode": "stream"},
        call={"data": "memory", "mode": "stream", "on_rank_failure": "reweight"},
        exp=lambda e: e.subsample(mode="stream", on_rank_failure="reweight"),
        drift=True),
    Row("inject-rank-failure-needs-stream", "inject_rank_failure",
        {"inject_rank_failure": 0, "ranks": 2},
        call={"data": "memory", "nranks": 2, "fault_hook": kill_rank_1},
        call_says="fault_hook",
        exp=lambda e: e.subsample(ranks=2, fault_hook=kill_rank_1)),
    Row("inject-rank-failure-needs-peers", "inject_rank_failure",
        {"inject_rank_failure": 0, "mode": "stream"},
        call={"data": "memory", "mode": "stream", "fault_hook": kill_rank_1},
        call_says="fault_hook",
        exp=lambda e: e.subsample(mode="stream", fault_hook=kill_rank_1)),
    Row("inject-rank-failure-in-range", "inject_rank_failure",
        {"inject_rank_failure": 5, "mode": "stream", "ranks": 2}),
    Row("tune-batch-only", "mode", {"kind": "tune", "tune_trials": 2, "mode": "stream"}),
    Row("tune-serial-ranks", "ranks", {"kind": "tune", "tune_trials": 2, "ranks": 2},
        exp=lambda e: e.with_train_ranks(2).tune(n_trials=2), exp_says="with_train_ranks"),
    Row("tune-serial-backend", "backend",
        {"kind": "tune", "tune_trials": 2, "backend": "process"},
        exp=lambda e: e.with_backend("process").tune(n_trials=2), drift=True),
    Row("tune-strategy-choice", "tune_strategy",
        {"kind": "tune", "tune_trials": 2, "tune_strategy": "grid"},
        exp=lambda e: e.tune(n_trials=2, strategy="grid"), drift=True),
    Row("tune-trials-tune-only", "tune_trials", {"tune_trials": 2}),
    Row("checkpoint-every-train-only", "checkpoint_every",
        {"kind": "tune", "tune_trials": 2, "checkpoint_every": 2}),
    Row("epochs-fits-only", "epochs", {"epochs": 2}, drift=True),
    Row("owned-shards-subsample-only", "owned_shards",
        {"kind": "train", "mode": "stream", "ranks": 2, "owned_shards": True,
         "source": SHARDS}, drift=True),
    Row("on-rank-failure-subsample-only", "on_rank_failure",
        {"kind": "train", "mode": "stream", "ranks": 2, "on_rank_failure": "reweight"},
        drift=True),
    Row("inject-rank-failure-subsample-only", "inject_rank_failure",
        {"kind": "train", "mode": "stream", "ranks": 2, "inject_rank_failure": 1},
        drift=True),
    Row("stream-shuffle-train-only-not-subsample", "stream_shuffle",
        {"stream_shuffle": 4}, drift=True),
    Row("stream-shuffle-train-only-not-tune", "stream_shuffle",
        {"kind": "tune", "tune_trials": 2, "stream_shuffle": 4},
        exp=lambda e: e.with_stream_shuffle(4).tune(n_trials=2), drift=True),
    Row("stream-shuffle-needs-stream", "stream_shuffle",
        {"kind": "train", "stream_shuffle": 4},
        exp=lambda e: e.with_stream_shuffle(4).train(), drift=True),
    Row("stream-needs-stream-sampler", "mode", {"mode": "stream"},
        case={"method": "uips"}, call={"data": "memory", "mode": "stream"},
        call_says="no streaming analogue", exp=lambda e: e.subsample(mode="stream"),
        exp_says="no streaming analogue", drift=True),
    Row("stream-never-full", "mode", {"mode": "stream"},
        case={"method": "full", "arch": "cnn_transformer"},
        call={"data": "memory", "mode": "stream"}, call_says="streaming analogue",
        exp=lambda e: e.subsample(mode="stream"), exp_says="drop mode='stream'",
        drift=True),
]


def case_yaml(row: Row) -> str:
    text = CASE_YAML
    for key, value in row.case.items():
        text = re.sub(rf"(?m)^(\s+{key}): .*$", rf"\1: {value}", text)
    return text


def job_doc(row: Row, shards: str) -> dict:
    doc = {"kind": "subsample", "case": loads(case_yaml(row)), "scale": 0.5, **row.doc}
    return {k: shards if v == SHARDS else v for k, v in doc.items()}


def argv_for(command: str, row: Row) -> list[str] | None:
    """``row`` as ``command``'s flags after the case file, or None when the
    command cannot spell it."""
    doc = {"kind": "subsample", **row.doc}
    kind = doc.pop("kind")
    if ((command == "subsample" and kind != "subsample")
            or (command == "train" and kind not in ("train", "tune"))
            or kind not in ("subsample", "train", "tune")
            or (kind == "tune") != ("tune_trials" in doc)):
        return None  # --tune is the only spelling of a tune job
    argv = ["--train"] if command == "submit" and kind == "train" else []
    for name, value in doc.items():
        if name not in CARRIES[command] or (name == "mode" and value != "stream"):
            return None
        argv += [FLAG[name]] if value is True or name == "mode" else [FLAG[name], str(value)]
    return argv


def rows_for(surface: str) -> list:
    keep = {
        "cli": lambda r: argv_for("subsample", r) is not None
        or argv_for("train", r) is not None,
        "submit": lambda r: argv_for("submit", r) is not None,
        "call": lambda r: r.call is not None,
        "facade": lambda r: r.exp is not None,
    }.get(surface, lambda r: True)
    return [pytest.param(r, id=r.rule) for r in ROWS if keep(r)]


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2)


@pytest.fixture(scope="module")
def shards(dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("runspec") / "shards")
    save_dataset(dataset, path)
    return path


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One live server for the whole table."""
    root = tmp_path_factory.mktemp("runspec-serve")
    scheduler = Scheduler(ArtifactStore(str(root / "store")), spool=str(root / "spool"),
                          workers=1)
    with ReproServer("127.0.0.1", 0, scheduler) as server:
        yield ServeClient(server.url, timeout=10.0)


def command_line(command: str, row: Row, shards: str, tmp_path) -> list[str]:
    case_file = tmp_path / "case.yaml"
    case_file.write_text(case_yaml(row))
    argv = argv_for(command, row)
    return [str(case_file), *(shards if a == SHARDS else a for a in argv)]


def rejects_with_usage(main, argv, flag: str, capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("row", rows_for("cli"))
def test_cli_rejects(row, shards, tmp_path, capsys):
    command = "subsample" if argv_for("subsample", row) is not None else "train"
    main = subsample_main if command == "subsample" else train_main
    rejects_with_usage(main, command_line(command, row, shards, tmp_path),
                       FLAG[row.says], capsys)


@pytest.mark.parametrize("row", rows_for("submit"))
def test_submit_rejects_before_any_request(row, shards, tmp_path, capsys, monkeypatch):
    def no_request(*args, **kwargs):
        raise AssertionError("repro-submit sent a request for an invalid spec")

    monkeypatch.setattr(ServeClient, "_request", no_request)
    rejects_with_usage(submit_main, command_line("submit", row, shards, tmp_path),
                       FLAG[row.says], capsys)


@pytest.mark.parametrize("row", rows_for("json"))
def test_json_spec_rejects(row, shards):
    with pytest.raises(SpecError, match=row.says):
        RunSpec.from_json(job_doc(row, shards)).validate()


@pytest.mark.parametrize("row", rows_for("http"))
def test_post_jobs_is_400(row, shards, service):
    with pytest.raises(ServeError) as err:
        service.submit(job_doc(row, shards))
    assert err.value.status == 400
    assert row.says in str(err.value)


@pytest.mark.parametrize("row", rows_for("call"))
def test_subsample_call_rejects(row, dataset, shards):
    kwargs = dict(row.call)
    data = kwargs.pop("data")
    source = ShardDirSource(shards) if data == "shards" else InMemorySource(dataset)
    config = CaseConfig.from_dict(loads(case_yaml(row)))
    try:
        with pytest.raises(ValueError, match=row.call_says):
            subsample(source, config, **kwargs)
    finally:
        if isinstance(source, ShardDirSource):
            source.close()


@pytest.mark.parametrize("row", rows_for("facade"))
def test_experiment_stage_call_rejects(row, dataset, shards):
    source = ShardDirSource(shards) if row.doc.get("source") == SHARDS \
        else InMemorySource(dataset)
    exp = (Experiment.from_case(CaseConfig.from_dict(loads(case_yaml(row))))
           .with_scale(0.5).with_source(source))
    try:
        with pytest.raises(ValueError, match=row.exp_says):
            row.exp(exp)
    finally:
        if isinstance(source, ShardDirSource):
            source.close()
    assert exp.artifacts == {}


@pytest.mark.parametrize("stage", [
    pytest.param(lambda e: e.with_ranks(0).subsample(), id="subsample"),
    pytest.param(lambda e: e.with_stream_shuffle(4).train(), id="train"),
    pytest.param(lambda e: e.with_backend("process").tune(n_trials=2), id="tune"),
])
def test_experiment_rejects_before_any_work(stage, monkeypatch):
    """The spec check runs before the stage builds its (lazy catalog) source
    or runs an implicit subsample."""
    def no_work(*args, **kwargs):
        raise AssertionError("the stage did work before checking its spec")

    monkeypatch.setattr("repro.api.load_dataset", no_work)
    monkeypatch.setattr("repro.api.subsample", no_work)
    exp = Experiment.from_case(CaseConfig.from_dict(loads(CASE_YAML))).with_scale(0.5)
    with pytest.raises(SpecError):
        stage(exp)
    assert exp.artifacts == {}


IDENTITY = {"schema", "kind", "case", "seed", "ranks", "mode", "scale", "source"}


@pytest.mark.parametrize("kind,extra", [
    ("subsample", {"owned_shards", "on_rank_failure", "inject_rank_failure"}),
    ("train", {"epochs", "stream_shuffle"}),
    ("tune", {"epochs", "tune_trials", "tune_strategy"}),
])
def test_key_doc_holds_exactly_the_kinds_identity_fields(kind, extra):
    doc = {"kind": kind, "case": loads(CASE_YAML)}
    if kind == "tune":
        doc["tune_trials"] = 2
    assert set(RunSpec.from_json(doc).key_doc()) == IDENTITY | extra


@pytest.mark.parametrize("main,flags", [
    (subsample_main, {"--ranks", "--seed", "--scale", "--output_dir", "--source",
                      "--stream", "--max-cached-shards", "--prefetch", "--owned-shards",
                      "--on-rank-failure", "--inject-rank-failure", "--backend"}),
    (train_main, {"--ranks", "--seed", "--scale", "--epochs", "--source", "--stream",
                  "--max-cached-shards", "--prefetch", "--checkpoint",
                  "--checkpoint-every", "--resume", "--tune", "--backend"}),
    (submit_main, {"--url", "--train", "--tune", "--ranks", "--seed", "--scale",
                   "--epochs", "--stream", "--source", "--backend",
                   "--max-cached-shards", "--prefetch", "--owned-shards",
                   "--on-rank-failure", "--inject-rank-failure", "--stream-shuffle",
                   "--retries", "--checkpoint-every", "--resume", "--wait", "--no-wait",
                   "--timeout", "--output", "--json"}),
])
def test_each_command_keeps_its_flag_set(main, flags, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option: no wrapped help
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = set(re.findall(r"(?m)^\s+(--[a-z_-]+)", capsys.readouterr().out))
    assert listed == flags
