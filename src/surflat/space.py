"""Lattice geometry: points, storage windows, regions, interface pairs.

Spacetime is the integer lattice Z^2 (time, space) with a circle fiber; the
configuration carries angle 0 everywhere. A Window is the finite box used for
array storage, a Region is a subset of a window, and stencil_pairs enumerates
the nearest-neighbor pairs coupling a region to its in-window complement.
The window rules live here too: common_window (inputs share one window),
Window.require_interior (a point keeps margin 1) and Window.cut_row (a cut
has a row on each side).
Everything downstream stores fields as (n_t, n_x) float arrays over a window,
row-major in (t, x).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import RangeError

# Offsets (dt, dx) on which the interaction is supported, lexicographic.
STENCIL_OFFSETS = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))
NEIGHBOR_OFFSETS = tuple(o for o in STENCIL_OFFSETS if o != (0, 0))


@dataclass(frozen=True, order=True)
class LatticePoint:
    """A point (t, x, phi); base points of the configuration have phi = 0."""

    t: int
    x: int
    phi: float = 0.0


@dataclass(frozen=True)
class Window:
    """Closed box [t_min, t_max] x [x_min, x_max] of lattice sites."""

    t_min: int
    t_max: int
    x_min: int
    x_max: int

    def __post_init__(self):
        if self.t_min > self.t_max or self.x_min > self.x_max:
            raise RangeError(f"empty window {self}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.t_max - self.t_min + 1, self.x_max - self.x_min + 1)

    def contains(self, t: int, x: int) -> bool:
        return self.t_min <= t <= self.t_max and self.x_min <= x <= self.x_max

    def index(self, t: int, x: int) -> tuple[int, int]:
        if not self.contains(t, x):
            raise RangeError(f"point ({t}, {x}) outside window {self}")
        return (t - self.t_min, x - self.x_min)

    def require_interior(self, t: int, x: int):
        """Raise RangeError unless (t, x) sits at least one site inside."""
        if not (self.t_min < t < self.t_max and self.x_min < x < self.x_max):
            raise RangeError(
                f"point ({t}, {x}) needs margin 1 inside window {self}")

    def cut_row(self, t: int) -> int:
        """Row index of time t, for a cut between rows t and t + 1.

        Requires t_min <= t < t_max so that both sides of the cut hold a
        row of the window.
        """
        if not self.t_min <= t < self.t_max:
            raise RangeError(
                f"slice time {t} not in [{self.t_min}, {self.t_max})")
        return t - self.t_min

    def t_coords(self) -> np.ndarray:
        return np.arange(self.t_min, self.t_max + 1)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def interior_mask(self) -> np.ndarray:
        """Boolean mask of the sites off every edge of the window."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[1:-1, 1:-1] = True
        return mask

    def shift_blocks(self, dt: int, dx: int):
        """Index blocks (x_block, y_block) of a (dt, dx) shift.

        x_block selects the sites whose (dt, dx)-neighbor lies in the window,
        y_block those neighbors, in matching order; both are tuples of
        slices, so indexing an array with them gives views.
        """
        n_t, n_x = self.shape
        x_block = (slice(max(0, -dt), min(n_t, n_t - dt)),
                   slice(max(0, -dx), min(n_x, n_x - dx)))
        y_block = (slice(max(0, dt), n_t + min(0, dt)),
                   slice(max(0, dx), n_x + min(0, dx)))
        return x_block, y_block

    def shifted(self, arr: np.ndarray, dt: int, dx: int) -> np.ndarray:
        """Array whose value at (t, x) is arr at (t + dt, x + dx), zero-filled."""
        out = np.zeros_like(arr)
        x_block, y_block = self.shift_blocks(dt, dx)
        out[x_block] = arr[y_block]
        return out


@dataclass(frozen=True, eq=False)
class Region:
    """A subset of a window's sites, stored as a boolean mask.

    The mask is the region's own read-only copy, so what is derived from it
    once, such as interface_sites, stays valid for the region's lifetime.
    """

    window: Window
    mask: np.ndarray

    def __post_init__(self):
        if self.mask.shape != self.window.shape:
            raise RangeError("region mask shape does not match window")
        mask = np.array(self.mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @functools.cached_property
    def interface_sites(self) -> dict:
        """Flat site indices of the interface pairs, computed once per region.

        Maps each neighbor offset (dt, dx) to (ix, iy): the row-major
        indices, into the window's raveled arrays, of the sites x that
        pair_masks marks for it, in order, and of their partners
        y = x + offset, iy = ix + dt * n_x + dx.
        """
        n_x = self.window.shape[1]
        sites = {}
        for (dt, dx), mask in pair_masks(self).items():
            ix = np.flatnonzero(mask)
            sites[(dt, dx)] = (ix, ix + (dt * n_x + dx))
        return sites

    @functools.cached_property
    def flat(self):
        """The region's sites as an index of its window's raveled arrays.

        A slice when the sites run contiguously in row-major order, as a
        past region's or a full-width box's do, otherwise the array of flat
        indices; either way a.ravel()[flat] reads the sites' values in
        row-major order, as a[mask] does, and a slice reads them as a view.
        """
        mask = self.mask.ravel()
        first, count = int(mask.argmax()), int(np.count_nonzero(mask))
        if count and mask[first:first + count].all():
            return slice(first, first + count)
        return np.flatnonzero(mask)

    @classmethod
    def from_box(cls, window: Window, t_lo: int, t_hi: int,
                 x_lo: int, x_hi: int) -> "Region":
        for (t, x) in ((t_lo, x_lo), (t_hi, x_hi)):
            if not window.contains(t, x):
                raise RangeError(f"box corner ({t}, {x}) outside window {window}")
        mask = np.zeros(window.shape, dtype=bool)
        i0, j0 = window.index(t_lo, x_lo)
        i1, j1 = window.index(t_hi, x_hi)
        mask[i0:i1 + 1, j0:j1 + 1] = True
        return cls(window, mask)

    def site_count(self) -> int:
        return int(np.count_nonzero(self.mask))


def common_window(*items) -> Window:
    """The window shared by jets, dual jets, regions and hierarchies.

    Every such input carries the window it lives on, and a sum over a
    region or a product of fields means nothing across windows, so inputs
    on different windows raise RangeError, even when their shapes agree.
    """
    window = items[0].window
    for item in items[1:]:
        if item.window != window:
            raise RangeError(f"inputs live on different windows: {window} "
                             f"and {item.window}")
    return window


def past_region(window: Window, t: int) -> Region:
    """All window sites with time coordinate at most t.

    Requires t_min <= t < t_max (Window.cut_row) so that both the region
    and its in-window complement are nonempty.
    """
    mask = np.zeros(window.shape, dtype=bool)
    mask[:window.cut_row(t) + 1, :] = True
    return Region(window, mask)


def pair_masks(omega: Region) -> dict[tuple[int, int], np.ndarray]:
    """Per-offset masks of interface pairs.

    For each neighbor offset u, the returned mask marks sites x in omega whose
    neighbor y = x + u lies in the window but outside omega. Such (x, y) are
    exactly the pairs on which the interaction couples the region to its
    complement.
    """
    window = omega.window
    outside = ~omega.mask
    masks = {}
    for (dt, dx) in NEIGHBOR_OFFSETS:
        masks[(dt, dx)] = omega.mask & window.shifted(outside, dt, dx)
    return masks


def stencil_pairs(omega: Region):
    """Interface pairs (x, y) in lexicographic order.

    x runs over omega, y over the in-window complement, with x - y restricted
    to the interaction stencil. The center offset never yields a pair. Points
    are returned with angle 0.
    """
    window = omega.window
    masks = pair_masks(omega)
    pairs = []
    for i, j in np.argwhere(omega.mask):
        t = int(i) + window.t_min
        x = int(j) + window.x_min
        for (dt, dx) in NEIGHBOR_OFFSETS:
            if masks[(dt, dx)][i, j]:
                pairs.append((LatticePoint(t, x), LatticePoint(t + dt, x + dx)))
    return pairs
