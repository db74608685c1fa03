"""Content-key stability — the dedupe identity must not drift.

Pins the satellite contract: keys are invariant to dict ordering,
defaulted-vs-spelled-out case fields, and the SPMD backend (the PR 6
conformance grid makes backends byte-interchangeable), and sensitive to
everything that perturbs artifact bytes (seed, ranks, scale, kind).
"""

import copy

import pytest

from repro.api import SubsampleArtifact
from repro.runspec import RunSpec, SpecError
from repro.serve.keys import (
    canonical_json,
    content_key,
    dir_fingerprint,
    source_fingerprint,
)

from _serve_cases import TINY_CASE


def reordered(doc: dict) -> dict:
    """Deep copy with every dict's insertion order reversed."""
    if isinstance(doc, dict):
        return {k: reordered(doc[k]) for k in reversed(list(doc))}
    if isinstance(doc, list):
        return [reordered(v) for v in doc]
    return copy.deepcopy(doc)


class TestCanonicalJson:
    def test_ordering_invariant(self):
        assert canonical_json({"b": 1, "a": {"y": 2, "x": 3}}) == \
            canonical_json({"a": {"x": 3, "y": 2}, "b": 1})

    def test_minimal_and_ascii(self):
        text = canonical_json({"k": "v", "n": 1.5})
        assert text == '{"k":"v","n":1.5}'
        text.encode("ascii")  # must not raise

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"loss": float("nan")})

    def test_content_key_is_sha256_hex(self):
        key = content_key({"a": 1})
        assert len(key) == 64
        int(key, 16)  # hex


class TestJobSpecKeys:
    def spec(self, **over) -> RunSpec:
        base = {"kind": "subsample", "case": copy.deepcopy(TINY_CASE),
                "seed": 3, "ranks": 2, "scale": 0.5}
        base.update(over)
        return RunSpec.from_json(base)

    def test_stable_across_case_dict_ordering(self):
        assert self.spec().content_key() == \
            self.spec(case=reordered(TINY_CASE)).content_key()

    def test_stable_across_defaulted_fields(self):
        """A case round-tripped through CaseConfig (every default spelled
        out) must hash identically to the terse client-side dict."""
        from repro.utils.config import CaseConfig

        expanded = CaseConfig.from_dict(copy.deepcopy(TINY_CASE)).to_dict()
        assert expanded != TINY_CASE  # defaults really were filled in
        assert self.spec().content_key() == \
            self.spec(case=expanded).content_key()

    def test_backend_excluded(self):
        assert self.spec(backend="thread").content_key() == \
            self.spec(backend="process").content_key()

    def test_execution_policy_excluded(self):
        assert self.spec().content_key() == \
            self.spec(retries=3).content_key()
        train = self.spec(kind="train", epochs=2)
        assert train.content_key() == \
            self.spec(kind="train", epochs=2,
                      checkpoint_every=5).content_key()

    @pytest.mark.parametrize("field,value,base", [
        ("seed", 4, {}),
        ("ranks", 3, {}),
        ("scale", 0.75, {}),
        ("mode", "stream", {}),
        ("stream_shuffle", 7, {"kind": "train", "mode": "stream"}),
    ])
    def test_identity_fields_included(self, field, value, base):
        assert self.spec(**base).content_key() != \
            self.spec(**base, **{field: value}).content_key()

    def test_kind_included(self):
        sub = self.spec()
        train = self.spec(kind="train", epochs=2)
        assert sub.content_key() != train.content_key()

    def test_epochs_perturb_train_keys(self):
        assert self.spec(kind="train", epochs=2).content_key() != \
            self.spec(kind="train", epochs=3).content_key()

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown job spec field"):
            RunSpec.from_json({"kind": "subsample", "case": TINY_CASE,
                               "sed": 3})


class TestSourceFingerprint:
    def test_catalog_vs_sim_distinct(self):
        cat = source_fingerprint(None, dtype="sst-binary", scale=0.5, seed=0)
        sim = source_fingerprint("sim", dtype="sst-binary", scale=0.5, seed=0)
        assert cat["kind"] == "catalog"
        assert sim["kind"] == "sim"
        assert content_key(cat) != content_key(sim)

    def test_dir_fingerprint_requires_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            dir_fingerprint(str(tmp_path))

    def test_dir_fingerprint_tracks_structure(self, tmp_path):
        from repro.data import build_dataset, save_dataset

        shard_dir = str(tmp_path / "shards")
        save_dataset(
            build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2),
            shard_dir)
        first = dir_fingerprint(shard_dir)
        assert first == dir_fingerprint(shard_dir)  # stable
        (tmp_path / "shards" / "extra.bin").write_bytes(b"xx")
        assert dir_fingerprint(shard_dir) != first

    def test_cache_knobs_are_identity(self, tmp_path):
        from repro.data import build_dataset, save_dataset

        shard_dir = str(tmp_path / "shards")
        save_dataset(
            build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2),
            shard_dir)
        kw = {"dtype": "sst-binary", "scale": 0.5, "seed": 0}
        base = source_fingerprint(shard_dir, **kw)
        assert source_fingerprint(shard_dir, **kw) == base
        assert source_fingerprint(shard_dir, prefetch=2, **kw) != base
        assert source_fingerprint(shard_dir, max_cached=5, **kw) != base


class TestArtifactFingerprint:
    def meta(self) -> dict:
        return {"seed": 3, "scale": 0.5, "ranks": 2, "backend": "thread",
                "case": copy.deepcopy(TINY_CASE)}

    def test_stable_across_meta_ordering(self):
        a = SubsampleArtifact(meta=self.meta())
        b = SubsampleArtifact(meta=reordered(self.meta()))
        assert a.fingerprint() == b.fingerprint()

    def test_backend_and_checkpoint_dropped(self):
        a = SubsampleArtifact(meta=self.meta())
        b = SubsampleArtifact(meta={**self.meta(), "backend": "process",
                                    "checkpoint": "/tmp/x.npz"})
        assert a.fingerprint() == b.fingerprint()

    def test_seed_and_kind_matter(self):
        a = SubsampleArtifact(meta=self.meta())
        assert a.fingerprint() != \
            SubsampleArtifact(meta={**self.meta(), "seed": 4}).fingerprint()
        from repro.api import TrainArtifact

        assert a.fingerprint() != \
            TrainArtifact(meta=self.meta()).fingerprint()
