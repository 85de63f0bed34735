"""Net extraction: pairing, reference points, Delone statistics, counting."""

import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from penrosenet.golden import CycloPoint, PHI_FLOAT, SIN36, embed
from penrosenet.net import (
    COVERING_RADIUS_BOUND,
    SOURCE_NAMES,
    Net,
    count_in_square,
    export_net,
    extract_net,
    full_tile_incenter,
    load_net,
)
from penrosenet.tiling import (
    HALF_DART,
    HALF_KITE,
    LEFT,
    RIGHT,
    Patch,
    Square,
    census,
    deflate_patch,
    generate_patch_covering,
    load_patch,
    save_patch,
)


def line_distance(pt, a, b):
    ax, ay = a
    bx, by = b
    ex, ey = bx - ax, by - ay
    return abs(ex * (pt[1] - ay) - ey * (pt[0] - ax)) / math.hypot(ex, ey)


def sampled_c2(net, h):
    """Grid-sampled covering radius: a lower estimate within h*sqrt(2).

    Samples the window on a grid of step h, keeping the samples inside the
    outline triangle when the net has one.
    """
    x0, y0, side = net.window
    xs = np.arange(x0, x0 + side + h / 2, h)
    ys = np.arange(y0, y0 + side + h / 2, h)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    if net.outline is not None:
        tri = net.outline
        keep = np.ones(len(pts), dtype=bool)
        for i in range(3):
            a, b, c = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            keep &= cross * np.sign(orient) >= -1e-9
        pts = pts[keep]
    d, _ = cKDTree(net.xy).query(pts, k=1)
    return float(d.max())


def assert_c2_matches_sampler(net, h=0.02):
    oracle = sampled_c2(net, h)
    assert oracle - 1e-9 <= net.c2 <= oracle + h * math.sqrt(2.0)


def full_tile_outline(kind):
    """Vertices of the paired tile: wing, apex, mirrored wing, axis_end."""
    patch = Patch.full_tile(kind)
    right, left = patch.tile(0), patch.tile(1)
    return [embed(v) for v in (right.wing, right.apex, left.wing, right.axis_end)]


class TestReferencePoints:
    def test_kite_point_is_incenter(self):
        tile = Patch.single_tile(HALF_KITE).tile(0)
        center = embed(full_tile_incenter(HALF_KITE, tile.apex, tile.axis_end))
        quad = full_tile_outline(HALF_KITE)
        dists = [
            line_distance(center, quad[i], quad[(i + 1) % 4]) for i in range(4)
        ]
        assert max(dists) - min(dists) < 1e-12
        assert abs(dists[0] - SIN36) < 1e-12

    def test_dart_point_is_incenter(self):
        tile = Patch.single_tile(HALF_DART).tile(0)
        center = embed(full_tile_incenter(HALF_DART, tile.apex, tile.axis_end))
        quad = full_tile_outline(HALF_DART)
        dists = [
            line_distance(center, quad[i], quad[(i + 1) % 4]) for i in range(4)
        ]
        assert max(dists) - min(dists) < 1e-12
        assert abs(dists[0] - SIN36 / PHI_FLOAT) < 1e-12

    def test_dart_wing_distance_attains_covering_bound(self):
        tile = Patch.single_tile(HALF_DART).tile(0)
        center = np.array(embed(full_tile_incenter(HALF_DART, tile.apex, tile.axis_end)))
        worst = max(
            float(np.linalg.norm(center - np.array(v))) for v in full_tile_outline(HALF_DART)
        )
        assert abs(worst - COVERING_RADIUS_BOUND) < 1e-12
        assert abs(COVERING_RADIUS_BOUND - math.sqrt(3.0 - PHI_FLOAT)) < 1e-15

    def test_kite_vertices_within_bound(self):
        tile = Patch.single_tile(HALF_KITE).tile(0)
        center = np.array(embed(full_tile_incenter(HALF_KITE, tile.apex, tile.axis_end)))
        worst = max(
            float(np.linalg.norm(center - np.array(v))) for v in full_tile_outline(HALF_KITE)
        )
        assert worst <= COVERING_RADIUS_BOUND + 1e-12


class TestExtraction:
    def test_lone_half_and_full_tile_agree(self):
        half = extract_net(Patch.single_tile(HALF_KITE))
        full = extract_net(Patch.full_tile(HALF_KITE))
        assert len(half) == 1
        assert len(full) == 1
        assert np.allclose(half.xy, full.xy, atol=1e-12)
        assert half.source_kinds[0] == full.source_kinds[0] == HALF_KITE

    def test_pair_counts_generation_two(self):
        patch = deflate_patch(Patch.full_tile(HALF_KITE, scale_exp=-2), 2)
        assert tuple(census(patch)) == (10, 6)
        net = extract_net(patch)
        kites = int(np.count_nonzero(net.source_kinds == HALF_KITE))
        darts = len(net) - kites
        assert (kites, darts) == (6, 5)

    def test_point_count_between_half_and_full_census(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-5), 5)
        counts = census(patch)
        net = extract_net(patch)
        assert math.ceil(counts.total() / 2) <= len(net) <= counts.total()

    def test_points_are_exact_ring_points(self):
        patch = deflate_patch(Patch.single_tile(HALF_DART, scale_exp=-4), 4)
        net = extract_net(patch)
        assert net.ring is not None
        for i in range(0, len(net), 5):
            p = net.point(i)
            x, y = embed(p.origin)
            assert abs(x - p.x) < 1e-12
            assert abs(y - p.y) < 1e-12

    def test_tile_ids_sorted_and_unique(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-4), 4)
        net = extract_net(patch)
        ids = net.tile_ids
        assert np.all(np.diff(ids) > 0)

    def test_requires_final_scale(self):
        with pytest.raises(ValueError, match="scale_exp"):
            extract_net(Patch.single_tile(HALF_KITE, scale_exp=-1))

    def test_window_override(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3)
        net = extract_net(patch, window=Square(-1.0, -1.0, 4.0))
        assert net.window == Square(-1.0, -1.0, 4.0)


class TestDeloneStatistics:
    def test_c1_matches_brute_force(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-5), 5)
        net = extract_net(patch)
        xy = net.xy
        brute = np.inf
        for i in range(len(xy)):
            d = np.linalg.norm(xy[i + 1:] - xy[i], axis=1)
            if len(d):
                brute = min(brute, float(d.min()))
        assert net.c1 == pytest.approx(brute, abs=0.0, rel=0.0)

    def test_c1_value_twice_dart_inradius(self):
        # adjacent dart points sit one dart inradius off each side of a
        # shared edge, and that is the closest approach
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-6), 6)
        net = extract_net(patch)
        assert net.c1 == pytest.approx(2.0 * SIN36 / PHI_FLOAT, abs=1e-9)

    def test_c1_stable_across_generations(self):
        values = []
        for gen in (6, 7):
            patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-gen), gen)
            values.append(extract_net(patch).c1)
        assert abs(values[0] - values[1]) < 1e-9

    def test_c2_within_covering_bound(self):
        patch = generate_patch_covering(Square(0.0, 0.0, 16.0))
        net = extract_net(patch)
        assert net.c2 <= COVERING_RADIUS_BOUND + net.c2_error_bound
        assert net.c2 > 0.9  # kite apex corners keep it near 1

    def test_c2_exact_value_on_covering_patch(self):
        net = extract_net(generate_patch_covering(Square(3.0, -17.0, 32.0)))
        assert abs(net.c2 - 1.0) <= net.c2_error_bound
        assert net.c2_error_bound == 1e-9

    def test_c2_against_sampler_covering_patch(self):
        assert_c2_matches_sampler(extract_net(generate_patch_covering(Square(0.0, 0.0, 16.0))))

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    def test_c2_against_sampler_window_clipped_to_outline(self, kind):
        # default window: padded bounding box, which reaches past the triangle
        net = extract_net(deflate_patch(Patch.single_tile(kind, scale_exp=-5), 5))
        assert net.outline is not None
        assert_c2_matches_sampler(net)

    def test_c2_against_sampler_loaded_net(self, tmp_path):
        path = str(tmp_path / "net.txt")
        export_net(extract_net(generate_patch_covering(Square(-5.0, 2.0, 16.0))), path)
        net = load_net(path)
        assert net.outline is None
        assert_c2_matches_sampler(net)

    def test_c2_against_sampler_window_past_patch_edge(self, tmp_path):
        # a loaded patch has no outline, so the region is the whole window;
        # its far corners are more than the first pad (2) from any point,
        # so the pad has to double before the answer is accepted
        path = str(tmp_path / "patch.txt")
        save_patch(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-5), 5), path)
        net = extract_net(load_patch(path), window=Square(-2.0, -2.0, 12.0))
        assert net.outline is None
        assert net.c2 > 2.0
        assert_c2_matches_sampler(net)

    @pytest.mark.parametrize("xy", [
        [[0.3, 0.4]],
        [[0.3, 0.4], [1.5, 1.1]],
        [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [2.0, 2.0]],
    ])
    def test_c2_degenerate_nets(self, xy):
        # too few or collinear points for a triangulation
        xy = np.array(xy)
        net = Net(xy, np.full(len(xy), HALF_KITE), np.arange(len(xy)), Square(0.0, 0.0, 2.0))
        assert_c2_matches_sampler(net)

    @pytest.mark.parametrize("xy, window, expected", [
        # the farthest location is where the bisector x = 1 crosses the top side
        ([[0.0, 0.0], [2.0, 0.0], [1.0, -5.0]], Square(0.0, 0.0, 2.0), math.sqrt(5.0)),
        # the right point lies beyond the first pad, yet it is the nearest
        # point of the window's right half
        ([[-1.5, 0.5], [3.2, 0.5]], Square(0.0, 0.0, 1.0), math.hypot(2.35, 0.5)),
        # the circumcenter (0, 0) of the four points lies 1e-4 below the
        # window, so its empty circle of radius 1 does not count
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], Square(-0.5, 1e-4, 1.0),
         math.hypot(1e-4, 1.0 - 1e-4)),
    ])
    def test_c2_exact_on_small_nets(self, xy, window, expected):
        xy = np.array(xy)
        net = Net(xy, np.full(len(xy), HALF_KITE), np.arange(len(xy)), window)
        assert abs(net.c2 - expected) <= net.c2_error_bound

    def test_c2_on_net_past_int32_edge_keys(self):
        # 51,304 points lie near the window, more than the 46,341 at which
        # i * n + j over int32 indices wraps.  A jittered unit lattice has
        # a hole centred 0.5 above the top side, so the farthest location
        # of the window is a bisector crossing of that side between two
        # points of the top rows, which have the highest indices.
        gy, gx = np.mgrid[0:230, 0:230]
        jitter = np.random.default_rng(1).uniform(-0.1, 0.1, (230 * 230, 2))
        xy = np.column_stack([gx.ravel(), gy.ravel()]) + jitter
        xy = xy[np.hypot(xy[:, 0] - 115.0, xy[:, 1] - 224.5) > 1.8]
        kinds, ids = np.full(len(xy), HALF_KITE), np.arange(len(xy))
        net = Net(xy, kinds, ids, Square(0.0, 0.0, 224.0))
        # away from the hole every location is within 0.86 of a lattice
        # point, so the oracle need only sample the window's top centre
        oracle = sampled_c2(Net(xy, kinds, ids, Square(105.0, 204.0, 20.0)), 0.02)
        assert oracle - 1e-9 <= net.c2 <= oracle + 0.02 * math.sqrt(2.0)

    def test_c2_of_window_off_the_outline_is_zero(self):
        net = extract_net(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3),
                          window=Square(100.0, 100.0, 4.0))
        assert net.c2 == 0.0

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Net(np.array([[0.0, np.nan]]), np.array([HALF_KITE]), np.array([0]),
                Square(0.0, 0.0, 1.0))

    @pytest.mark.parametrize("window", [
        Square(np.nan, 0.0, 8.0), Square(0.0, np.inf, 8.0), Square(0.0, 0.0, 0.0),
        Square(0.0, 0.0, -1.0),
    ])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            Net(np.array([[0.5, 0.5]]), np.array([HALF_KITE]), np.array([0]), window)

    def test_single_point_c1_raises(self):
        net = extract_net(Patch.single_tile(HALF_KITE))
        with pytest.raises(ValueError):
            net.c1


class TestCounting:
    def synthetic(self):
        xy = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 1.0]]
        )
        kinds = np.array([HALF_KITE, HALF_DART, HALF_KITE, HALF_DART, HALF_KITE])
        ids = np.arange(5)
        return Net(xy, kinds, ids, Square(0.0, 0.0, 2.0))

    def test_half_open_membership(self):
        net = self.synthetic()
        assert count_in_square(net, Square(0.0, 0.0, 1.0)) == (1, 1)
        assert count_in_square(net, Square(1.0, 1.0, 1.0)) == (1, 0)
        assert count_in_square(net, Square(1.0, 0.0, 1.0)) == (0, 1)
        assert count_in_square(net, Square(0.0, 0.0, 2.0)) == (3, 2)

    def test_unit_translates_partition_window(self):
        patch = generate_patch_covering(Square(0.0, 0.0, 8.0))
        net = extract_net(patch)
        total = 0
        for a in range(8):
            for b in range(8):
                k, d = count_in_square(net, Square(float(a), float(b), 1.0))
                total += k + d
        k, d = count_in_square(net, Square(0.0, 0.0, 8.0))
        assert total == k + d

    def test_square_outside_window_rejected(self):
        net = self.synthetic()
        with pytest.raises(ValueError, match="window"):
            count_in_square(net, Square(1.5, 0.0, 1.0))

    def test_density_roughly_rho(self):
        patch = generate_patch_covering(Square(0.0, 0.0, 32.0))
        net = extract_net(patch)
        k, d = count_in_square(net, Square(0.0, 0.0, 32.0))
        assert (k + d) / 1024.0 == pytest.approx(0.7608, abs=0.02)


def per_line_load_net(path: str) -> Net:
    """The one-line-per-iteration reader load_net replaced."""
    window = None
    xs, ys, kinds, ids = [], [], [], []
    name_codes = {v: k for k, v in SOURCE_NAMES.items()}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if parts and parts[0] == "window":
                    window = Square(float(parts[1]), float(parts[2]), float(parts[3]))
                continue
            px, py, kind, tid = line.split()
            xs.append(float(px))
            ys.append(float(py))
            kinds.append(name_codes[kind])
            ids.append(int(tid))
    if window is None:
        raise ValueError("net file missing window header")
    return Net(np.column_stack([xs, ys]), np.array(kinds), np.array(ids), window)


def assert_nets_identical(a: Net, b: Net) -> None:
    for x, y in ((a.xy, b.xy), (a.source_kinds, b.source_kinds), (a.tile_ids, b.tile_ids)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert tuple(a.window) == tuple(b.window)


NET_LINES = "# penrosenet net v1\n# window -1.5 2 8\n0.25 -3.125 kite 4\n1e-05 7 dart 9\n"

MALFORMED_NETS = {
    "missing_window": NET_LINES.replace("# window -1.5 2 8\n", ""),
    "three_tokens": NET_LINES.replace(" dart 9", " dart"),
    "five_tokens": NET_LINES.replace(" dart 9", " dart 9 1"),
    "unknown_kind": NET_LINES.replace(" dart ", " darts "),
    "short_kind": NET_LINES.replace(" kite ", " kit "),
    "hash_in_kind": NET_LINES.replace(" kite ", " kite# "),
    "letter_in_coordinate": NET_LINES.replace("0.25", "0.2x"),
    "float_tile_id": NET_LINES.replace(" 9\n", " 9.0\n"),
    "no_points": "# window 0 0 8\n",
}


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-4), 4)
        net = extract_net(patch)
        path = str(tmp_path / "net.txt")
        export_net(net, path)
        back = load_net(path)
        assert len(back) == len(net)
        assert np.array_equal(back.source_kinds, net.source_kinds)
        assert np.array_equal(back.tile_ids, net.tile_ids)
        assert np.allclose(back.xy, net.xy, atol=1e-9)
        # the window survives at the 12-significant-digit export precision
        assert np.allclose(tuple(back.window), tuple(net.window), rtol=1e-11, atol=1e-11)

    def test_header_reports_stats(self, tmp_path):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-4), 4)
        net = extract_net(patch)
        path = str(tmp_path / "net.txt")
        export_net(net, path)
        head = open(path).read().splitlines()[:5]
        assert head[0] == "# penrosenet net v1"
        assert head[1].startswith("# points ")
        assert head[2].startswith("# c1 ")
        assert head[3].startswith("# c2 ")

    def test_point_lines_match_per_line_writer(self, tmp_path):
        net = extract_net(generate_patch_covering(Square(-3.0, 5.0, 8.0)))
        path = str(tmp_path / "net.txt")
        export_net(net, path)
        expected = "".join(
            f"{net.xy[i, 0]:.12g} {net.xy[i, 1]:.12g} "
            f"{SOURCE_NAMES[int(net.source_kinds[i])]} {int(net.tile_ids[i])}\n"
            for i in range(len(net))
        )
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert "".join(lines[5:]) == expected

    @pytest.mark.parametrize("make", [
        lambda: extract_net(generate_patch_covering(Square(-5.0, 2.0, 16.0))),
        lambda: extract_net(deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-5), 5)),
    ], ids=["covering_16", "deflated_half_dart"])
    def test_load_matches_per_line_reader(self, make, tmp_path):
        path = str(tmp_path / "net.txt")
        export_net(make(), path)
        assert_nets_identical(load_net(path), per_line_load_net(path))

    def test_full_precision_floats_match_per_line_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        xy = rng.normal(scale=10.0 ** rng.integers(-8, 8, size=(400, 1)), size=(400, 2))
        path = tmp_path / "net.txt"
        path.write_text("# window 0 0 1\n" + "".join(
            f"{x!r} {y!r} {'kite' if i % 3 else 'dart'} {i}\n" for i, (x, y) in enumerate(xy.tolist())
        ), encoding="ascii")
        back = load_net(str(path))
        assert_nets_identical(back, per_line_load_net(str(path)))
        assert back.xy.tobytes() == xy.tobytes()

    def test_comments_blank_and_indented_lines_accepted(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(NET_LINES.replace("\n0.25", "\n\n   0.25").replace("\n1e-05", "\n# note\n\t1e-05"),
                        encoding="ascii")
        assert_nets_identical(load_net(str(path)), per_line_load_net(str(path)))

    @pytest.mark.parametrize("case", list(MALFORMED_NETS))
    def test_malformed_fails_as_before(self, case, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(MALFORMED_NETS[case], encoding="ascii")
        with pytest.raises((ValueError, KeyError)) as old:
            per_line_load_net(str(path))
        with pytest.raises((ValueError, KeyError)) as new:
            load_net(str(path))
        if case == "hash_in_kind":  # the old reader failed on the token kite#
            assert new.type is ValueError and "'#' inside a data line" in str(new.value)
        else:
            assert new.type is old.type

    @pytest.mark.parametrize("tile_id", ["9.0", "2.7"])
    def test_float_tile_id_rejected_with_warnings_ignored(self, tile_id, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(NET_LINES.replace(" 9\n", f" {tile_id}\n"), encoding="ascii")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="convert"):
                load_net(str(path))

    def test_nan_window_rejected(self, tmp_path):
        path = str(tmp_path / "broken.txt")
        with open(path, "w") as fh:
            fh.write("# window nan 0 8\n0.0 0.0 kite 0\n")
        with pytest.raises(ValueError, match="window"):
            load_net(path)

    def test_missing_window_rejected(self, tmp_path):
        path = str(tmp_path / "broken.txt")
        with open(path, "w") as fh:
            fh.write("0.0 0.0 kite 0\n")
        with pytest.raises(ValueError, match="window"):
            load_net(path)
