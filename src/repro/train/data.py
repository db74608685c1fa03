"""Building training arrays from subsample results (paper §5's three tasks).

* **sample-single** (LSTM): per-snapshot subsampled probe values →
  sequences [B, T, C] predicting a global scalar (OF2D drag).
* **sample-full** (MLP-Transformer): subsampled points inside a hypercube →
  the dense output field of that cube ([B, T, C, N] → [B, T', C', H, W, D]);
  this is the sparse-sensor-reconstruction task, so the sampled point
  *locations* are held fixed across time per cube (sensors don't move).
* **full-full** (CNN-Transformer / MATEY): dense hypercubes in, dense
  hypercubes out.

Targets are the dense fields at the last ``horizon`` steps of each input
window (same-time reconstruction, which also covers the single-snapshot
GESTS datasets with window = horizon = 1).

Both builders accept any :class:`~repro.data.sources.SnapshotSource` (or a
resident dataset, coerced) — snapshots are fetched through the source on
demand in time order, so training windows can be assembled from out-of-core
shards or an in-situ simulation without a resident dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import TurbulenceDataset
from repro.data.hypercubes import extract_hypercube
from repro.data.sources import SnapshotSource, open_source
from repro.sampling.pipeline import SubsampleResult

__all__ = [
    "ReconstructionData",
    "build_reconstruction_data",
    "build_drag_data",
    "train_test_split",
    "FeedSpec",
    "WindowAssembler",
    "ReconWindows",
    "DragWindows",
    "stream_sensor_layout",
    "stream_assembler",
]


@dataclass
class ReconstructionData:
    """Training arrays plus the geometry the model needs."""

    x: np.ndarray  # [B, T, C, N] (points) or [B, T, C, H, W, D] (cubes)
    y: np.ndarray  # [B, T', C', H, W, D]
    grid: tuple[int, int, int]
    in_channels: int
    out_channels: int
    n_points: int | None  # None for structured inputs

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y batch sizes differ")


def _windows(n_times: int, window: int, horizon: int) -> list[tuple[list[int], list[int]]]:
    """Input/target time-index pairs: targets are the window's last h steps."""
    if window < 1 or horizon < 1:
        raise ValueError("window and horizon must be >= 1")
    if horizon > window:
        raise ValueError("horizon must be <= window (same-time reconstruction)")
    if n_times < window:
        raise ValueError(f"need at least {window} snapshots, have {n_times}")
    return [
        (list(range(t, t + window)), list(range(t + window - horizon, t + window)))
        for t in range(n_times - window + 1)
    ]


def _window_ending_at(s: int, window: int, horizon: int) -> tuple[list[int], list[int]] | None:
    """The input/target time indices for a sample anchored at snapshot s."""
    if s < window - 1:
        return None
    t_in = list(range(s - window + 1, s + 1))
    return t_in, t_in[-horizon:]


def _cube_shape_of(result: SubsampleResult) -> tuple[int, ...]:
    if result.points is None:
        raise ValueError("result has no point samples (was method='full'?)")
    cube_shape = result.points.meta.get("cube_shape")
    if cube_shape is None:
        raise ValueError("result points missing 'cube_shape' meta")
    return tuple(int(c) for c in cube_shape)


def _snapshot_index(source: SnapshotSource, times: np.ndarray) -> np.ndarray:
    """Map per-point snapshot times back to snapshot indices."""
    ds_times = source.times
    idx = np.searchsorted(ds_times, times)
    idx = np.clip(idx, 0, len(ds_times) - 1)
    # searchsorted can land one slot right of the match for float times.
    left = np.clip(idx - 1, 0, len(ds_times) - 1)
    use_left = np.abs(ds_times[left] - times) < np.abs(ds_times[idx] - times)
    idx = np.where(use_left, left, idx)
    if not np.allclose(ds_times[idx], times):
        raise ValueError("sample times do not match any dataset snapshot")
    return idx


def _cube_groups(
    result: SubsampleResult, source: SnapshotSource
) -> dict[tuple[int, tuple[int, ...]], np.ndarray]:
    """Sampled *relative* coordinates per selected (snapshot, origin) cube."""
    pts = result.points
    cube_shape = _cube_shape_of(result)
    coords = pts.coords.astype(int)
    origins = (coords // np.array(cube_shape)) * np.array(cube_shape)
    rel = coords - origins
    times = np.broadcast_to(np.asarray(pts.time, dtype=np.float64), (len(pts),))
    snaps = _snapshot_index(source, times)
    groups: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    keys = np.column_stack([snaps, origins])
    for key in np.unique(keys, axis=0):
        mask = np.all(keys == key, axis=1)
        groups[(int(key[0]), tuple(int(o) for o in key[1:]))] = rel[mask]
    return groups


def _origin_groups(
    result: SubsampleResult, source: SnapshotSource
) -> dict[tuple[int, ...], np.ndarray]:
    """Sensor layout per spatial origin (union over selected snapshots)."""
    merged: dict[tuple[int, ...], np.ndarray] = {}
    for (_, origin), rel in sorted(_cube_groups(result, source).items()):
        if origin not in merged:
            merged[origin] = rel
    return merged


def build_reconstruction_data(
    data: SnapshotSource | TurbulenceDataset,
    result: SubsampleResult,
    window: int = 1,
    horizon: int = 1,
    structured: bool | None = None,
) -> ReconstructionData:
    """Assemble reconstruction training arrays from a pipeline result.

    `data` is the snapshot source (or resident dataset) the result was
    sampled from; windows are fetched through it snapshot-by-snapshot.
    """
    source = open_source(data)
    in_vars = source.input_vars
    out_vars = source.output_vars
    if not out_vars:
        raise ValueError(f"dataset {source.label} has no output variables")

    if structured is None:
        structured = result.cubes is not None

    def _block(t: int, origin, cube_shape, names) -> np.ndarray:
        snap = source.snapshot(t)
        return np.stack([
            extract_hypercube(snap, origin, cube_shape, [v]).variables[v]
            for v in names
        ])

    if structured:
        if result.cubes is None:
            raise ValueError("structured data requested but result has no cubes")
        cube_shape = result.cubes[0].shape
        xs, ys = [], []
        for cube in result.cubes:
            s = cube.meta.get("snapshot")
            if s is None:
                s = int(_snapshot_index(source, np.array([cube.time]))[0])
            pair = _window_ending_at(int(s), window, horizon)
            if pair is None:
                continue  # selected cube lacks temporal history for the window
            t_in, t_out = pair
            xs.append(np.stack([_block(t, cube.origin, cube_shape, in_vars) for t in t_in]))
            ys.append(np.stack([_block(t, cube.origin, cube_shape, out_vars) for t in t_out]))
        if not xs:
            raise ValueError("no selected cube has enough history for the window")
        return ReconstructionData(
            x=np.stack(xs), y=np.stack(ys), grid=tuple(cube_shape),
            in_channels=len(in_vars), out_channels=len(out_vars), n_points=None,
        )

    groups = _cube_groups(result, source)
    if not groups:
        raise ValueError("no sampled cubes found in result")
    n_pts = min(len(rel) for rel in groups.values())
    cube_shape = _cube_shape_of(result)
    xs, ys = [], []
    for (s, origin), rel in sorted(groups.items()):
        pair = _window_ending_at(s, window, horizon)
        if pair is None:
            continue
        t_in, t_out = pair
        rel = rel[:n_pts]
        idx = tuple(rel[:, d] + origin[d] for d in range(len(origin)))
        # Fixed sensors: the same point locations observed at every window step.
        xs.append(np.stack([
            np.stack([source.snapshot(t).get(v)[idx] for v in in_vars]) for t in t_in
        ]))
        ys.append(np.stack([_block(t, origin, cube_shape, out_vars) for t in t_out]))
    if not xs:
        raise ValueError("no selected cube has enough history for the window")
    return ReconstructionData(
        x=np.stack(xs), y=np.stack(ys), grid=tuple(cube_shape),
        in_channels=len(in_vars), out_channels=len(out_vars), n_points=n_pts,
    )


def build_drag_data(
    data: SnapshotSource | TurbulenceDataset,
    result: SubsampleResult,
    window: int = 3,
    horizon: int = 1,
    max_features: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample-single arrays: [B, T, C*N] sequences → [B, T', 1] drag targets.

    Uses the sampled point locations of the first cube group as fixed probes
    across all snapshots (sparse sensors measuring the wake); snapshots are
    streamed through the source in time order.
    """
    source = open_source(data)
    if source.target is None:
        raise ValueError(f"dataset {source.label} has no global target")
    groups = _origin_groups(result, source)
    # Concatenate probes from all groups, capped to keep the LSTM input sane.
    rel_all = []
    for origin, rel in sorted(groups.items()):
        for r in rel:
            rel_all.append(tuple(r[d] + origin[d] for d in range(len(origin))))
    probes = rel_all[: max(1, max_features // max(1, len(source.input_vars)))]
    idx = tuple(np.array([p[d] for p in probes]) for d in range(source.ndim))

    feats = np.stack([
        np.concatenate([snap.get(v)[idx] for v in source.input_vars])
        for _, snap in source.iter_snapshots()
    ])  # [T_total, C*N]
    pairs = _windows(source.n_snapshots, window, horizon)
    x = np.stack([feats[t_in] for t_in, _ in pairs])
    y = np.stack([source.target[t_out] for _, t_out in pairs])[..., None]
    return x, y


# ---------------------------------------------------------------------------
# Incremental window builders (stream-mode training)
# ---------------------------------------------------------------------------
#
# The batch builders above materialize every window up front; the classes
# below build the *same shapes* one snapshot at a time, so a
# :class:`~repro.train.feeds.StreamFeed` can train directly off a streaming
# source with only a rolling ``window``-deep buffer resident.  The sampled
# point locations of a stream-mode subsample become fixed sensors, exactly
# as the batch builders treat sampled coordinates.


@dataclass(frozen=True)
class FeedSpec:
    """Model-building geometry a feed exposes before any data streams.

    Mirrors what :func:`repro.api.build_model_for_case` reads off a
    :class:`ReconstructionData` (``grid`` / channels / ``n_points``), plus
    ``input_dim`` for the LSTM's flat feature sequences.
    """

    grid: tuple[int, ...] | None
    in_channels: int
    out_channels: int
    n_points: int | None
    input_dim: int | None = None


@dataclass(frozen=True)
class SensorLayout:
    """Fixed sensor locations grouped by hypercube origin.

    ``origins[i]`` is a cube origin and ``rel[i]`` its (n_points, ndim)
    within-cube sensor offsets — every origin carries the same number of
    sensors so samples stack into rectangular batches.
    """

    cube_shape: tuple[int, ...]
    origins: tuple[tuple[int, ...], ...]
    rel: tuple[np.ndarray, ...]

    @property
    def n_points(self) -> int:
        return len(self.rel[0]) if self.rel else 0

    def index_tuples(self) -> list[tuple[np.ndarray, ...]]:
        """Per-origin global fancy-index tuples into a snapshot array."""
        out = []
        for origin, rel in zip(self.origins, self.rel):
            out.append(tuple(rel[:, d] + origin[d] for d in range(len(origin))))
        return out


def stream_sensor_layout(
    coords: np.ndarray,
    grid_shape: tuple[int, ...],
    cube_shape: tuple[int, ...],
    max_cubes: int = 8,
) -> SensorLayout:
    """Derive a fixed sensor layout from stream-sampled point coordinates.

    Stream-mode subsamples carry no hypercube structure, so the cube tiling
    is reimposed here: points are binned by the case's cube shape, the
    ``max_cubes`` best-populated cubes (fully inside the grid) are kept, and
    each keeps the same number of sensors (the smallest kept group, so
    batches are rectangular).  Deterministic: groups order by size then
    origin, sensor offsets sort lexicographically.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2 or len(coords) == 0:
        raise ValueError("coords must be a non-empty (n, ndim) array")
    d = len(grid_shape)
    if coords.shape[1] != d:
        raise ValueError(f"coords are {coords.shape[1]}-D but the grid is {d}-D")
    cube = np.minimum(np.asarray(cube_shape[:d], dtype=int), np.asarray(grid_shape))
    if np.any(cube < 1):
        raise ValueError("cube shape must be >= 1 along every axis")
    icoords = np.rint(coords).astype(int)
    origins_all = (icoords // cube) * cube
    groups: dict[tuple[int, ...], np.ndarray] = {}
    for key in np.unique(origins_all, axis=0):
        origin = tuple(int(o) for o in key)
        if any(o + c > g for o, c, g in zip(origin, cube, grid_shape)):
            continue  # partial boundary tile: no full dense target block
        mask = np.all(origins_all == key, axis=1)
        rel = np.unique(icoords[mask] - key, axis=0)  # dedupe + lex order
        groups[origin] = rel
    if not groups:
        raise ValueError("no sampled point falls inside a full cube tile")
    ranked = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))[:max_cubes]
    n_pts = min(len(rel) for _, rel in ranked)
    kept = sorted((origin, rel[:n_pts]) for origin, rel in ranked)
    return SensorLayout(
        cube_shape=tuple(int(c) for c in cube),
        origins=tuple(origin for origin, _ in kept),
        rel=tuple(rel for _, rel in kept),
    )


class WindowAssembler:
    """Turns a rolling buffer of per-snapshot records into training samples.

    Subclasses define :meth:`read` (one compact record per streamed
    snapshot — sensor readings, dense target blocks) and :meth:`assemble`
    (the samples for the window the buffer currently holds); ``spec`` gives
    the model geometry up front, before any data streams.
    """

    window: int
    horizon: int
    n_per_window: int
    spec: FeedSpec

    def read(self, snap, index: int):
        raise NotImplementedError

    def assemble(self, records) -> list[tuple[np.ndarray, np.ndarray]]:
        raise NotImplementedError


class ReconWindows(WindowAssembler):
    """Sparse-sensor reconstruction windows, one sample per (window, cube).

    Per streamed snapshot, :meth:`read` keeps each cube's sensor readings
    ([C, N]) and its dense output block ([C', *cube]); :meth:`assemble`
    stacks the window into ``x = [T, C, N]`` and the last ``horizon``
    blocks into ``y = [T', C', *cube]`` — the shapes
    :func:`build_reconstruction_data` produces, built incrementally.
    """

    def __init__(
        self,
        layout: SensorLayout,
        in_vars: list[str],
        out_vars: list[str],
        window: int = 1,
        horizon: int = 1,
    ) -> None:
        if window < 1 or horizon < 1 or horizon > window:
            raise ValueError("need 1 <= horizon <= window")
        if not out_vars:
            raise ValueError("reconstruction windows need output variables")
        self.layout = layout
        self.in_vars = list(in_vars)
        self.out_vars = list(out_vars)
        self.window = window
        self.horizon = horizon
        self.n_per_window = len(layout.origins)
        self._idx = layout.index_tuples()
        self.spec = FeedSpec(
            grid=layout.cube_shape,
            in_channels=len(self.in_vars),
            out_channels=len(self.out_vars),
            n_points=layout.n_points,
        )

    def read(self, snap, index: int):
        sens = [
            np.stack([snap.get(v)[idx] for v in self.in_vars])
            for idx in self._idx
        ]
        blocks = [
            np.stack([
                extract_hypercube(snap, origin, self.layout.cube_shape, [v]).variables[v]
                for v in self.out_vars
            ])
            for origin in self.layout.origins
        ]
        return sens, blocks

    def assemble(self, records) -> list[tuple[np.ndarray, np.ndarray]]:
        records = list(records)
        out = []
        for i in range(len(self.layout.origins)):
            x = np.stack([sens[i] for sens, _ in records])
            y = np.stack([blocks[i] for _, blocks in records[-self.horizon:]])
            out.append((x, y))
        return out


class DragWindows(WindowAssembler):
    """Sample-single (LSTM) windows: probe sequences → global-target steps.

    Mirrors :func:`build_drag_data`: the sampled locations become fixed
    probes; per snapshot the record is one flat feature row plus the
    snapshot's global target, and a window assembles into
    ``x = [T, C*N]`` / ``y = [T', 1]``.
    """

    def __init__(
        self,
        layout: SensorLayout,
        in_vars: list[str],
        window: int = 3,
        horizon: int = 1,
        max_features: int = 512,
    ) -> None:
        if window < 1 or horizon < 1 or horizon > window:
            raise ValueError("need 1 <= horizon <= window")
        self.in_vars = list(in_vars)
        self.window = window
        self.horizon = horizon
        self.n_per_window = 1
        probes = [
            tuple(int(rel[d] + origin[d]) for d in range(len(origin)))
            for origin, rel_block in zip(layout.origins, layout.rel)
            for rel in rel_block
        ]
        probes = probes[: max(1, max_features // max(1, len(self.in_vars)))]
        ndim = len(layout.cube_shape)
        self._idx = tuple(
            np.array([p[d] for p in probes]) for d in range(ndim)
        )
        self.spec = FeedSpec(
            grid=None,
            in_channels=len(self.in_vars),
            out_channels=1,
            n_points=len(probes),
            input_dim=len(probes) * len(self.in_vars),
        )

    def read(self, snap, index: int):
        feats = np.concatenate([snap.get(v)[self._idx] for v in self.in_vars])
        return feats, index

    def assemble(self, records) -> list[tuple[np.ndarray, np.ndarray]]:
        records = list(records)
        x = np.stack([feats for feats, _ in records])
        y = np.array(
            [self._target(idx) for _, idx in records[-self.horizon:]],
            dtype=np.float64,
        )[:, None]
        return [(x, y)]

    def bind_target(self, target: np.ndarray) -> DragWindows:
        """Attach the (span-local) per-snapshot global target array."""
        if target is None:
            raise ValueError("drag windows need a source with a global target")
        self._targets = np.asarray(target, dtype=np.float64)
        return self

    def _target(self, index: int) -> float:
        return float(self._targets[index])


def stream_assembler(
    source: SnapshotSource,
    case,
    points,
    max_cubes: int = 8,
) -> WindowAssembler:
    """Build the window assembler for a case's architecture and stream points.

    ``points`` is the stream-mode subsample's
    :class:`~repro.data.points.PointSet` (the sampled locations become the
    fixed sensors/probes).  Supports the unstructured architectures:
    ``lstm`` (drag sequences) and ``mlp_transformer`` (sparse-sensor
    reconstruction); the dense-cube architectures need ``method='full'``,
    which has no streaming analogue.
    """
    arch = case.train.arch
    if arch not in ("lstm", "mlp_transformer"):
        raise ValueError(
            f"stream training supports arch 'lstm' and 'mlp_transformer'; "
            f"{arch!r} needs dense cubes (method 'full'), which have no "
            "single-pass streaming analogue — use mode='batch'"
        )
    if points is None or len(points) == 0:
        raise ValueError("stream training needs a subsample with point samples")
    layout = stream_sensor_layout(
        points.coords, source.grid_shape, case.subsample.hypercube_shape,
        max_cubes=max_cubes,
    )
    window, horizon = case.train.window, case.train.horizon
    if arch == "lstm":
        if source.target is None:
            raise ValueError(
                f"dataset {source.label} has no global target (lstm trains "
                "on a per-snapshot scalar)"
            )
        return DragWindows(
            layout, source.input_vars, window=window, horizon=horizon,
        ).bind_target(source.target)
    return ReconWindows(
        layout, source.input_vars, source.output_vars,
        window=window, horizon=horizon,
    )


def train_test_split(
    x: np.ndarray, y: np.ndarray, test_frac: float = 0.1, rng: np.random.Generator | int | None = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled 90:10 (by default) split, matching the paper's protocol."""
    if not (0.0 < test_frac < 1.0):
        raise ValueError("test_frac must lie in (0, 1)")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_frac)))
    test, train = perm[:n_test], perm[n_test:]
    if len(train) == 0:
        raise ValueError("split left no training samples")
    return x[train], y[train], x[test], y[test]
