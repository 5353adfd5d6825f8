import pytest

from tropasym import random_matrix, spectral_data
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


@pytest.mark.parametrize("grid", [2, 17, 64])
def test_region_matches_per_cell_oracle(grid):
    for seed in SEEDS:
        sd = spectral_data(random_matrix(3, seed=seed))
        gens = [g.to_floats() for g in sd.generators]
        svg = render_eigenspace_svg(sd, None, grid)
        assert _region_lines(svg) == region_rects(gens, grid, REGION_TOL), seed
