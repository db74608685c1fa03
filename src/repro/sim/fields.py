"""Flow-field container and derived-variable registry.

A :class:`FlowField` is one solution snapshot: named variables on a common
grid plus a time stamp.  Derived variables (Table 1's K-means cluster
variables: vorticity ``wz``, enstrophy, dissipation ``ee``, potential
vorticity ``pv``) are computed on demand and cached; a reader may seed that
cache with values persisted at ingest (``derived=``), so a stored cluster
variable is decoded instead of re-derived.
"""

from __future__ import annotations

from collections import ChainMap
from collections.abc import Callable, Mapping, MutableMapping

import numpy as np

from repro.sim import spectral

__all__ = ["FlowField", "DERIVED_VARIABLES"]


def _need(field: FlowField, *names: str) -> list[np.ndarray]:
    missing = [n for n in names if n not in field.variables]
    if missing:
        raise KeyError(f"derived variable needs {missing}, available: {sorted(field.variables)}")
    return [field.variables[n] for n in names]


def _wz(field: FlowField) -> np.ndarray:
    u, v = _need(field, "u", "v")
    if field.ndim == 2:
        return spectral.vorticity(u, v)[0]
    (w,) = _need(field, "w")
    return spectral.vorticity(u, v, w)[2]


def _enstrophy(field: FlowField) -> np.ndarray:
    if field.ndim == 2:
        return _wz(field) ** 2
    u, v, w = _need(field, "u", "v", "w")
    return spectral.enstrophy(u, v, w)


def _dissipation(field: FlowField) -> np.ndarray:
    u, v, w = _need(field, "u", "v", "w")
    return spectral.dissipation_rate(u, v, w, nu=field.meta.get("nu", 1.0))


def _pv(field: FlowField) -> np.ndarray:
    """Potential vorticity q = omega . grad(rho) (SST's cluster variable)."""
    u, v, w = _need(field, "u", "v", "w")
    (r,) = _need(field, "r")
    wx, wy, wz = spectral.vorticity(u, v, w)
    # Background stratification contributes a mean gradient along gravity.
    g_axis = {"x": 0, "y": 1, "z": 2}.get(field.meta.get("gravity", "z"), 2)
    grads = list(spectral.gradient(r))
    grads[g_axis] = grads[g_axis] + field.meta.get("background_drho", 1.0)
    return wx * grads[0] + wy * grads[1] + wz * grads[2]


def _speed(field: FlowField) -> np.ndarray:
    comps = [field.variables[n] for n in ("u", "v", "w") if n in field.variables]
    if not comps:
        raise KeyError("speed needs at least one velocity component")
    return np.sqrt(sum(c**2 for c in comps))


#: name -> function(FlowField) -> array registry of derived variables.
DERIVED_VARIABLES: dict[str, Callable[[FlowField], np.ndarray]] = {
    "wz": _wz,
    "enstrophy": _enstrophy,
    "ee": _dissipation,
    "pv": _pv,
    "speed": _speed,
}


class FlowField:
    """One snapshot: named variables on a shared uniform grid.

    Parameters
    ----------
    variables:
        Mapping of variable name to array; all arrays must share a shape.
    time:
        Solution time of the snapshot.
    meta:
        Free-form metadata consumed by derived variables (``nu``, ``gravity``,
        ``background_drho``) and dataset descriptions.
    derived:
        Optional precomputed derived variables (name to array, or a lazy
        mapping that decodes on access).  They seed the derived cache and
        are not part of :attr:`variables` or :meth:`nbytes`.
    """

    def __init__(
        self,
        variables: dict[str, np.ndarray],
        time: float = 0.0,
        meta: dict | None = None,
        derived: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        if not variables:
            raise ValueError("a FlowField needs at least one variable")
        shapes = {v.shape for v in variables.values()}
        if len(shapes) != 1:
            raise ValueError(f"variables must share a grid shape, got {shapes}")
        self.variables = dict(variables)
        self.time = float(time)
        self.meta = dict(meta or {})
        self._seed_cache(derived)

    def _seed_cache(self, derived: Mapping[str, np.ndarray] | None) -> None:
        # A lazy `derived` stays lazy behind the ChainMap: lookups fall
        # through to it, new derivations land in the front dict.
        self._cache: MutableMapping[str, np.ndarray] = (
            ChainMap({}, derived) if derived else {}
        )

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return next(iter(self.variables.values())).shape

    @property
    def ndim(self) -> int:
        return len(self.grid_shape)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.grid_shape))

    def __contains__(self, name: str) -> bool:
        return name in self.variables or name in self._cache or name in DERIVED_VARIABLES

    def get(self, name: str) -> np.ndarray:
        """Fetch a stored or derived variable (derived results are cached)."""
        if name in self.variables:
            return self.variables[name]
        if name in self._cache:
            return self._cache[name]
        if name in DERIVED_VARIABLES:
            value = DERIVED_VARIABLES[name](self)
            self._cache[name] = value
            return value
        raise KeyError(
            f"unknown variable {name!r}; stored: {sorted(self.variables)}, "
            f"derivable: {sorted(DERIVED_VARIABLES)}"
        )

    __getitem__ = get

    def point_table(self, names: list[str]) -> np.ndarray:
        """Stack variables as a (n_points, len(names)) feature table."""
        if not names:
            raise ValueError("need at least one variable name")
        return np.column_stack([self.get(n).reshape(-1) for n in names])

    def nbytes(self) -> int:
        """Storage footprint of the stored (not derived) variables."""
        return int(sum(v.nbytes for v in self.variables.values()))
