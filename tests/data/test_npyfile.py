"""The repo-owned ``.npy``/``.npz`` reader: it round-trips everything numpy
writes for this package bit-exactly, rejects what it does not read, is the
only array reader in ``src/``, and stays safe when thread ranks decode
shards concurrently."""

import ast
import gc
import io
import os
import struct
import threading
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib import format as npformat

from repro.data import ShardDirSource, build_dataset, save_dataset
from repro.data.npyfile import (
    MAX_HEADER_SIZE,
    NpzFile,
    array_from_buffer,
    load_npy,
    read_header,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: every dtype this package writes: fields, coordinates, parameters and
#: optimizer state, cube ids, masks, and the JSON metadata strings
DTYPES = [np.dtype(d) for d in ("<f8", "<f4", "<i8", "<i4", "|u1", "|b1", "<c16", "<U9")]
VERSIONS = [(1, 0), (2, 0), (3, 0)]


def npy_bytes(arr, version=None) -> bytes:
    buf = io.BytesIO()
    npformat.write_array(buf, arr, version=version, allow_pickle=False)
    return buf.getvalue()


def same(got, want) -> bool:
    """Equal dtype, shape, memory order and bytes (NaN payloads included)."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.flags.c_contiguous == want.flags.c_contiguous
            and got.flags.f_contiguous == want.flags.f_contiguous
            and got.tobytes() == want.tobytes())


written = st.tuples(
    hnp.arrays(st.sampled_from(DTYPES),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)),
    st.booleans(),
).map(lambda t: np.asfortranarray(t[0]) if t[1] else t[0])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("npyfile"))


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(arr=written)
    def test_every_header_version_round_trips(self, arr):
        for version in VERSIONS:
            got = array_from_buffer(npy_bytes(arr, version))
            assert same(got, arr), version
            assert read_header(npy_bytes(arr, version)).shape == arr.shape

    @settings(max_examples=60, deadline=None)
    @given(arr=written)
    def test_npy_files_read_and_map(self, workdir, arr):
        path = os.path.join(workdir, "a.npy")
        np.save(path, arr)
        got = load_npy(path)
        assert same(got, arr) and got.flags.writeable
        if arr.size:
            mapped = load_npy(path, mmap=True)
            assert isinstance(mapped, np.memmap) and not mapped.flags.writeable
            assert same(np.asarray(mapped), arr)

    @settings(max_examples=60, deadline=None)
    @given(arrays=st.lists(written, min_size=1, max_size=4), compressed=st.booleans())
    def test_npz_members_read_and_report_headers(self, workdir, arrays, compressed):
        path = os.path.join(workdir, "a.npz")
        payload = {f"m{i}": a for i, a in enumerate(arrays)}
        (np.savez_compressed if compressed else np.savez)(path, **payload)
        data = NpzFile(path)
        assert list(data) == list(payload)
        for name, want in payload.items():
            got = data[name]
            assert same(got, want) and got.flags.writeable, name
            header = data.header(name)
            assert (header.dtype, header.shape) == (want.dtype, want.shape)

    def test_scalars_strings_and_appended_stored_members(self, workdir):
        """The shapes a shard holds: a 0-d time, a ``<U`` JSON scalar, and a
        derived member appended uncompressed after savez_compressed."""
        path = os.path.join(workdir, "shard.npz")
        meta = np.array('{"label": "SST-P1F4", "é": 1}')
        np.savez_compressed(path, time=np.array(0.25), meta=meta,
                            var_u=np.arange(24.0).reshape(2, 3, 4))
        with zipfile.ZipFile(path, "a") as zf:
            with zf.open("der_pv.npy", "w", force_zip64=True) as fh:
                npformat.write_array(fh, np.linspace(0, 1, 24).reshape(2, 3, 4))
        data = NpzFile(path)
        assert float(data["time"]) == 0.25 and data["time"].shape == ()
        assert str(data["meta"]) == str(meta)
        assert same(data["der_pv"], np.linspace(0, 1, 24).reshape(2, 3, 4))
        assert data.header("der_pv").shape == (2, 3, 4)
        assert "var_u" in data and "var_w" not in data
        with pytest.raises(KeyError, match="var_w"):
            data["var_w"]

    def test_zip64_records(self, workdir, monkeypatch):
        """Sizes and offsets past the ZIP64 limit live in extra fields and a
        ZIP64 end record; a tiny limit makes zipfile write both."""
        path = os.path.join(workdir, "zip64.npz")
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 64)
        payload = {"a": np.arange(50.0), "b": np.ones((3, 3), order="F")}
        np.savez(path, **payload)
        monkeypatch.undo()
        with open(path, "rb") as fh:
            assert b"PK\x06\x06" in fh.read()  # the ZIP64 end record is there
        data = NpzFile(path)
        for name, want in payload.items():
            assert same(data[name], want), name


class TestRejects:
    def test_object_and_structured_dtypes(self):
        buf = io.BytesIO()
        npformat.write_array(buf, np.array([1, None], dtype=object), allow_pickle=True)
        objects = buf.getvalue()
        structured = npy_bytes(np.zeros(2, dtype=[("a", "<f8"), ("b", "<i4")]))
        for payload in (objects, structured):
            with pytest.raises(ValueError, match="unsupported NPY header"):
                array_from_buffer(payload)

    def test_header_over_numpys_limit(self):
        text = "{'descr': '<f8', 'fortran_order': False, 'shape': (1,), }"
        text += " " * (MAX_HEADER_SIZE + 1 - len(text) - 1) + "\n"
        payload = (b"\x93NUMPY\x02\x00" + struct.pack("<I", len(text))
                   + text.encode("latin1") + np.zeros(1).tobytes())
        with pytest.raises(ValueError, match="over the 10000-byte limit"):
            array_from_buffer(payload)
        with pytest.raises(ValueError):  # numpy refuses it too
            np.load(io.BytesIO(payload))

    def test_bad_magic_version_and_truncated_header(self):
        good = npy_bytes(np.arange(3.0))
        with pytest.raises(ValueError, match="bad magic"):
            array_from_buffer(b"\x93NUMPZ" + good[6:])
        with pytest.raises(ValueError, match="version"):
            array_from_buffer(good[:6] + b"\x04\x00" + good[8:])
        with pytest.raises(ValueError, match="truncated NPY header"):
            array_from_buffer(good[:40])

    def test_truncated_payloads(self, workdir):
        good = npy_bytes(np.arange(6.0).reshape(2, 3))
        with pytest.raises(ValueError, match="data bytes"):
            array_from_buffer(good[:-8])
        path = os.path.join(workdir, "short.npy")
        with open(path, "wb") as fh:
            fh.write(good[:-8])
        for mmap in (False, True):
            with pytest.raises(ValueError, match="data bytes"):
                load_npy(path, mmap=mmap)
        npz = os.path.join(workdir, "short.npz")
        np.savez_compressed(npz, a=np.arange(100.0))
        with open(npz, "rb") as fh:
            raw = fh.read()
        with open(npz, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="not a zip archive"):
            NpzFile(npz)

    @pytest.mark.parametrize("compressed", (False, True))
    def test_corrupt_member_bytes(self, workdir, compressed):
        path = os.path.join(workdir, "corrupt.npz")
        (np.savez_compressed if compressed else np.savez)(
            path, a=np.arange(64.0), b=np.arange(8))
        flip_member_byte(path, "a.npy")
        data = NpzFile(path)
        assert same(data["b"], np.arange(8))  # the table and other members survive
        with pytest.raises(ValueError, match="CRC-32|deflate|bytes, expected"):
            data["a"]

    def test_archive_comment(self, workdir):
        path = os.path.join(workdir, "comment.npz")
        np.savez(path, a=np.arange(3.0))
        with zipfile.ZipFile(path, "a") as zf:
            zf.comment = b"numpy writes none"
        with pytest.raises(ValueError, match="without a comment"):
            NpzFile(path)

    def test_unsupported_compression(self, workdir):
        pytest.importorskip("bz2")
        path = os.path.join(workdir, "bz2.npz")
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_BZIP2) as zf:
            zf.writestr("a.npy", npy_bytes(np.arange(4.0)))
        with pytest.raises(ValueError, match="unsupported compression method 12"):
            NpzFile(path)["a"]


def flip_member_byte(path: str, member: str) -> None:
    """Invert one byte in the middle of `member`'s stored data."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    with open(path, "r+b") as fh:
        fh.seek(info.header_offset + 26)
        n_name, n_extra = struct.unpack("<2H", fh.read(4))
        at = info.header_offset + 30 + n_name + n_extra + info.compress_size // 2
        fh.seek(at)
        byte = fh.read(1)
        fh.seek(at)
        fh.write(bytes([byte[0] ^ 0xFF]))


def test_corrupted_shard_member_raises_through_the_source(tmp_path):
    ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2)
    save_dataset(ds, str(tmp_path))
    flip_member_byte(str(tmp_path / "snapshot_00001.npz"), "var_u.npy")
    src = ShardDirSource(str(tmp_path))
    assert np.array_equal(src.snapshot(0).get("u"), ds.snapshots[0].get("u"))
    snap = src.snapshot(1)
    assert np.array_equal(snap.get("v"), ds.snapshots[1].get("v"))
    with pytest.raises(ValueError, match="var_u"):
        snap.get("u")


#: numpy.lib.format helpers that read arrays or headers
READ_HELPERS = {"read_array", "read_magic", "read_array_header_1_0",
                "read_array_header_2_0", "open_memmap"}


def test_no_other_array_reader_in_src():
    """Every array read in src/ goes through repro.data.npyfile: no
    ``np.load`` call and no numpy.lib.format read helper anywhere else."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "npyfile.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Attribute) and node.attr == "load"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                offenders.append(f"{where} np.load")
            elif isinstance(node, ast.Attribute) and node.attr in READ_HELPERS:
                offenders.append(f"{where} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                offenders += [f"{where} import {a.name}" for a in node.names
                              if a.name in READ_HELPERS | {"load"}]
    assert not offenders, offenders


class _Cycle:
    """Cyclic garbage whose finalizer releases the GIL."""

    def __init__(self):
        self.me = self

    def __del__(self):
        time.sleep(0)


def test_threads_decoding_at_different_stack_depths_never_raise(tmp_path):
    """Regression: numpy's npy-header parse (``ast.literal_eval``) raised
    ``SystemError: AST constructor recursion depth mismatch`` on CPython
    3.11.7 when a finalizer released the GIL mid-parse and a thread at
    another stack depth parsed meanwhile.  Four threads decode through the
    public path over raw and npz shards while collections run finalizers
    that yield; the first error, if any, fails the test."""
    ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)
    sources = []
    for codec in ("raw", "npz"):
        path = str(tmp_path / codec)
        save_dataset(ds, path, codec=codec)
        sources.append(ShardDirSource(path, max_cached=1))
    errors: list[Exception] = []
    stop = threading.Event()

    def decode_at_depth(src, i, depth):
        if depth:
            return decode_at_depth(src, i, depth - 1)
        return src.snapshot(i).get("u")

    def decode(k):
        src = sources[k % 2]
        try:
            while not stop.is_set():
                for i in range(src.n_snapshots):
                    _Cycle()
                    decode_at_depth(src, i, 5 + 17 * k)
        except Exception as exc:
            errors.append(exc)
            stop.set()

    threshold = gc.get_threshold()
    gc.set_threshold(10, 1, 1)
    threads = [threading.Thread(target=decode, args=(k,), daemon=True) for k in range(4)]
    try:
        for t in threads:
            t.start()
        stop.wait(3.0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
        gc.set_threshold(*threshold)
        gc.collect()
    assert not any(t.is_alive() for t in threads)
    assert not errors, repr(errors[0])
