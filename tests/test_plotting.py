import tracemalloc

import pytest

from tropasym import TropicalMatrix, plotting, random_matrix, spectral_data
from tropasym.plotting import REGION_TOL, render_eigenspace_svg

from _oracles import region_rects

# seeds 0..19 of random_matrix(3) give one, two and three generators
# (point, segment and full regions)
SEEDS = range(20)


def _region_lines(svg: str) -> list[str]:
    lines = svg.splitlines()
    start = lines.index('<g fill="#9db8d9">') + 1
    return lines[start:lines.index("</g>", start)]


def test_seeds_cover_every_region_shape():
    counts = {len(spectral_data(random_matrix(3, seed=s)).generators) for s in SEEDS}
    assert counts == {1, 2, 3}


def test_rejects_other_sizes_and_coarse_grids():
    with pytest.raises(ValueError, match="3-dimensional"):
        render_eigenspace_svg(spectral_data(random_matrix(4, seed=0)), None, 16)
    with pytest.raises(ValueError, match="grid"):
        render_eigenspace_svg(spectral_data(random_matrix(3, seed=0)), None, 1)


@pytest.mark.parametrize("grid", [2, 17, 64])
def test_region_matches_per_cell_oracle(grid, monkeypatch):
    # blocks of the default size, of one row, and of 5 rows.  The block
    # height still comes from the grid, so these sizes hold on the tested
    # sub-grid too, whose 6 to 14 rows at grid 17 and 21 to 55 at grid 64
    # leave partial last blocks of 5 rows
    for seed in SEEDS:
        sd = spectral_data(random_matrix(3, seed=seed))
        gens = [g.to_floats() for g in sd.generators]
        expected = region_rects(gens, grid, REGION_TOL)
        for block_rows in (None, 1, 5):
            with monkeypatch.context() as m:
                if block_rows is not None:
                    m.setattr(plotting, "_RASTER_CELLS", block_rows * grid + grid - 1)
                svg = render_eigenspace_svg(sd, None, grid)
            assert _region_lines(svg) == expected, (seed, block_rows)


def test_raster_memory_stays_below_a_lattice_tensor():
    sd = spectral_data(random_matrix(3, seed=1))
    assert len(sd.generators) == 3  # a full region: every block has runs
    grid = 400
    render_eigenspace_svg(sd, None, 8)  # first-call allocations off the books
    tracemalloc.start()
    try:
        render_eigenspace_svg(sd, None, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid * grid * 3 * 8  # one (grid, grid, 3) float64 tensor



@pytest.mark.parametrize(
    "seed, factor, grid",
    [
        (1, 1, 33),  # a full region on an odd grid
        (0, 1, 33),  # one generator between lattice points: an empty raster
        (1, 10**9, 40),  # entries near 1e9, where the skip margin grows with them
        (13, 10**9, 33),
    ],
)
def test_region_matches_oracle_off_the_default_cases(seed, factor, grid):
    A = random_matrix(3, seed=seed)
    nums = tuple(tuple(factor * x for x in row) for row in A.nums)
    sd = spectral_data(TropicalMatrix(nums, A.den))
    gens = [g.to_floats() for g in sd.generators]
    expected = region_rects(gens, grid, REGION_TOL)
    assert _region_lines(render_eigenspace_svg(sd, None, grid)) == expected
    assert (expected == []) == (len(gens) == 1)
