"""Synthetic OpenStreetMap tile renderings (Section V's third data set).

The paper's OSM data: "a collection of 16 large (1 GB) dense arrays from
Open Street Maps — a free and editable collection of maps ... one per
week for the last 16 weeks of 2009.  The OSM data generally differs less
between consecutive versions (and is thus more amenable to delta
compression) than the NOAA data, because the street map evolves less
quickly than weather does."

The generator draws a road network — random polylines rasterized onto a
light canvas, wider trunk roads plus narrow residential streets — and
evolves it very slowly: each weekly version adds or redraws only a few
road segments.  That extreme inter-version similarity of a large dense
raster is the property Tables III, IV and VI measure; the tiles are
scaled from 1 GB to megabytes (scale recorded in docs/paper.md).
"""

from __future__ import annotations

import numpy as np

BACKGROUND = 235  # light map background
ROAD_SHADES = (40, 70, 110)  # trunk, primary, residential


def _draw_line(canvas: np.ndarray, start: tuple[int, int],
               end: tuple[int, int], shade: int, width: int) -> None:
    """Rasterize one road segment by dense point sampling."""
    rows, cols = canvas.shape
    length = int(np.hypot(end[0] - start[0], end[1] - start[1])) + 1
    steps = np.linspace(0, 1, max(2, length * 2))
    ys = np.clip(np.round(start[0] + steps * (end[0] - start[0])), 0,
                 rows - 1).astype(np.int64)
    xs = np.clip(np.round(start[1] + steps * (end[1] - start[1])), 0,
                 cols - 1).astype(np.int64)
    half = width // 2
    for dy in range(-half, half + 1):
        for dx in range(-half, half + 1):
            canvas[np.clip(ys + dy, 0, rows - 1),
                   np.clip(xs + dx, 0, cols - 1)] = shade


class OSMGenerator:
    """Slowly-evolving rendered road map."""

    def __init__(self, shape: tuple[int, int] = (512, 512), *,
                 initial_roads: int = 60,
                 edits_per_week: int = 3,
                 seed: int = 2009):
        self.shape = shape
        self.edits_per_week = edits_per_week
        self.rng = np.random.default_rng(seed)
        self._roads: list[tuple[tuple[int, int], tuple[int, int],
                                int, int]] = []
        for _ in range(initial_roads):
            self._roads.append(self._random_road())

    def _random_road(self):
        rows, cols = self.shape
        start = (int(self.rng.integers(0, rows)),
                 int(self.rng.integers(0, cols)))
        end = (int(self.rng.integers(0, rows)),
               int(self.rng.integers(0, cols)))
        tier = int(self.rng.integers(0, len(ROAD_SHADES)))
        width = (3, 2, 1)[tier]
        return start, end, ROAD_SHADES[tier], width

    def _render(self) -> np.ndarray:
        canvas = np.full(self.shape, BACKGROUND, dtype=np.uint8)
        for start, end, shade, width in self._roads:
            _draw_line(canvas, start, end, shade, width)
        return canvas

    def weekly_tiles(self, count: int):
        """Yield ``count`` weekly renderings; few roads change per week."""
        for week in range(count):
            if week:
                for _ in range(self.edits_per_week):
                    action = self.rng.random()
                    if action < 0.6 or not self._roads:
                        self._roads.append(self._random_road())
                    elif action < 0.85:
                        index = int(self.rng.integers(0, len(self._roads)))
                        self._roads[index] = self._random_road()
                    else:
                        index = int(self.rng.integers(0, len(self._roads)))
                        self._roads.pop(index)
            yield self._render()


def osm_series(count: int = 16, shape: tuple[int, int] = (512, 512), *,
               seed: int = 2009) -> list[np.ndarray]:
    """The paper's 16 consecutive weekly tiles, scaled."""
    return list(OSMGenerator(shape, seed=seed).weekly_tiles(count))
