"""SVG rendering of three-node eigenspaces and trajectories.

Points of a three-coordinate projective vector plot in the plane through
their last two coordinates.  The eigenspace region is rasterized by testing
span membership on a grid, a block of grid rows per numpy pass; a block
holds at most `_RASTER_CELLS` cells, so the temporaries stay a few
block-sized float arrays at any grid.  Each cell's distance comes from the
same float operations as `core.span_distance`, so its verdict at
`REGION_TOL` is the one the scalar test gives.  Exactness lives in the
membership test; pixels are presentation.

Only cells near the generators' coordinatewise bounding box are tested.
The generators g_j are pinned to g_j0 = 0, and a point p = (0, x, y) has
the projection proj_i = max_j(lam_j + g_ji) with proj_0 = max_j lam_j, so
proj_i - proj_0 lies between min_j g_ji and max_j g_ji: the normalized
span lies inside the box (tropical convexity; Develin and Sturmfels,
"Tropical convexity", 2004).  A cell whose coordinate lies d outside the
box is therefore at distance at least d from the span, and the raster
skips every row and column farther out than a margin that exceeds
`REGION_TOL` plus the float rounding of a cell's distance.
"""

from __future__ import annotations

import numpy as np

from .perron import PerronTrajectory
from .spectral import SpectralData

REGION_TOL = 1e-9
_PAD = 1.0  # the region window pads the generators' bounding box by this
_SIZE = 640.0
_MARGIN = 40.0

# cells per raster block, which bounds the raster's temporaries at any grid
_RASTER_CELLS = 1 << 16


def _gradient(t: float) -> str:
    # yellow (early k) to purple (late k)
    a = (250, 220, 30)
    b = (100, 10, 150)
    rgb = tuple(round(x + (y - x) * t) for x, y in zip(a, b))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_eigenspace_svg(
    sd: SpectralData,
    traj: PerronTrajectory | None = None,
    grid: int = 400,
) -> str:
    """SVG with the shaded span region, circled generators, and the trajectory.

    Only three-coordinate data can be drawn (plane projection); other sizes
    are rejected.
    """
    gens = [g.to_floats() for g in sd.generators]
    if any(len(g) != 3 for g in gens) or not gens:
        raise ValueError(
            "plotting is restricted to 3-dimensional data (plane projection of TP^2)"
        )
    if grid < 2:
        raise ValueError("grid must be at least 2")
    pts = [(g[1], g[2]) for g in gens]
    tpts: list[tuple[float, float]] = []
    if traj is not None:
        tpts = [(s.point.coords[1], s.point.coords[2]) for s in traj.samples]
    x_lo = min(p[0] for p in pts) - _PAD
    x_hi = max(p[0] for p in pts) + _PAD
    y_lo = min(p[1] for p in pts) - _PAD
    y_hi = max(p[1] for p in pts) + _PAD
    # canvas covers the region window plus any trajectory points
    cx_lo = min([x_lo] + [p[0] for p in tpts])
    cx_hi = max([x_hi] + [p[0] for p in tpts])
    cy_lo = min([y_lo] + [p[1] for p in tpts])
    cy_hi = max([y_hi] + [p[1] for p in tpts])

    span = max(cx_hi - cx_lo, cy_hi - cy_lo)
    scale = (_SIZE - 2 * _MARGIN) / span

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (
            _MARGIN + (x - cx_lo) * scale,
            _SIZE - _MARGIN - (y - cy_lo) * scale,  # SVG y axis points down
        )

    # cells are evaluated at their lower-left lattice point, so a degenerate
    # (segment or point shaped) region lights up only where the lattice meets
    # it: a generator lies on a lattice point only when the grid puts it
    # there (figure-6's one point draws a cell at grid 400, none at 399 or 401)
    dx = (x_hi - x_lo) / grid
    dy = (y_hi - y_lo) / grid
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE:.0f}" height="{_SIZE:.0f}" '
        f'viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        '<g fill="#9db8d9">',
    ]
    # region cells, run-length merged per row to keep files small.  A block
    # of rows repeats core.span_distance([0, x, y], gens) <= REGION_TOL
    # elementwise: lam_j = min(0 - g_j0, x - g_j1, y - g_j2),
    # proj_i = max_j(lam_j + g_ji) (a max is exact in any order),
    # dist = max_i |p_i - (proj_i - proj_0)|, whose i = 0 term is exactly 0.
    # Only lattice rows and columns within `margin` of the generators'
    # bounding box are tested (see the module docstring).  The tested
    # coordinates are slices of the whole window's lattice xs and ys, so a
    # tested cell sees the values and operations of a full-window pass.
    #
    # The margin.  Let U bound every |coordinate| of the window, hence of
    # the generators, and u = eps / 2.  A computed lam_j lies in [-2U, 0],
    # so a sum lam_j + g_ji rounds by at most 3uU, and lam_j + g_j0 is
    # lam_j exactly (g_j0 = 0).  So proj_i lies within 3uU of
    # [proj_0 + min_j g_ji, proj_0 + max_j g_ji], and proj_i - proj_0
    # rounds by at most uU more.  A cell whose coordinate i lies d outside
    # the box gets |p_i - (proj_i - proj_0)| >= (d - 4uU)(1 - u) > REGION_TOL
    # once d > 1.01 REGION_TOL + 4.01uU.  The box edges below round by at
    # most u(U + margin) and a lattice coordinate exceeds U by at most 2uU,
    # so margin = 2 REGION_TOL + 16uU leaves every untested cell outside.
    # Temporaries are one workspace of five (rows, width) float arrays, at
    # most 2.5 MB: rows * width <= _RASTER_CELLS unless one row exceeds it
    g = np.array(gens)
    xs = x_lo + np.arange(grid) * dx
    ys = y_lo + np.arange(grid) * dy
    big = max(abs(x_lo), abs(x_hi), abs(y_lo), abs(y_hi))
    margin = 2 * REGION_TOL + 8 * np.finfo(float).eps * big  # big is U, 8 eps is 16u
    # the lattice coordinates rise with the index: each box is a slice
    ix0, ix1 = np.searchsorted(xs, (g[:, 1].min() - margin, g[:, 1].max() + margin))
    iy0, iy1 = np.searchsorted(ys, (g[:, 2].min() - margin, g[:, 2].max() + margin))
    xs = xs[ix0:ix1]
    width = len(xs)
    # min(0 - g_j0, x - g_j1), the same on every row: (len(gens), width)
    lam_x = np.minimum((0.0 - g[:, 0])[:, None], xs - g[:, 1][:, None])
    rows = max(1, _RASTER_CELLS // grid)
    work = np.empty((5, min(rows, iy1 - iy0), width))
    h = dy * scale
    for row0 in range(iy0, iy1, rows):
        ys_b = ys[row0 : min(row0 + rows, iy1), None]
        block = work[:, : len(ys_b)]
        block[2:] = -np.inf  # max(-inf, v) is v: the proj_i start empty
        lam, tmp, p0, p1, p2 = block
        for lam_xj, gj in zip(lam_x, g):
            np.minimum(lam_xj, ys_b - gj[2], out=lam)
            for p, gji in zip((p0, p1, p2), gj):
                np.maximum(p, np.add(lam, gji, out=tmp), out=p)
        np.abs(np.subtract(xs, np.subtract(p1, p0, out=p1), out=p1), out=p1)
        np.abs(np.subtract(ys_b, np.subtract(p2, p0, out=p2), out=p2), out=p2)
        inside = np.zeros((len(ys_b), width + 2), dtype=bool)  # False pads close runs
        np.less_equal(np.maximum(p1, p2, out=p1), REGION_TOL, out=inside[:, 1:-1])
        # an even number of edges per padded row: consecutive pairs are the
        # (start, stop) of each run, rows in order, columns from ix0
        edge_rows, edge_cols = np.nonzero(inside[:, 1:] != inside[:, :-1])
        edge_cols = (edge_cols + ix0).tolist()
        for r, start, stop in zip(
            edge_rows[::2].tolist(), edge_cols[::2], edge_cols[1::2]
        ):
            px0, py0 = to_px(x_lo + start * dx, y_lo + (row0 + r + 1) * dy)
            w = (stop - start) * dx * scale
            parts.append(
                f'<rect x="{px0:.2f}" y="{py0:.2f}" '
                f'width="{w + 0.5:.2f}" height="{h + 0.5:.2f}"/>'
            )
    parts.append("</g>")
    # trajectory: yellow to purple with growing k
    if tpts:
        parts.append("<g>")
        denom = max(len(tpts) - 1, 1)
        for rank, (x, y) in enumerate(tpts):
            px, py = to_px(x, y)
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" '
                f'fill="{_gradient(rank / denom)}"/>'
            )
        parts.append("</g>")
    # generators circled in red
    parts.append('<g fill="none" stroke="red" stroke-width="2">')
    for x, y in pts:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="8"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
