import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arrayshadow import (
    ArraySpec,
    Scene,
    TargetSheet,
    antenna_positions,
    discretize_sheet,
    geometry,
)
from arrayshadow.geometry import (
    MAX_ORDER,
    ORDER_MARGIN,
    check_orders,
    gauss_legendre,
    rule_orders,
    sheet_orders,
)
from arrayshadow.presets import load_preset
from conftest import WAVELENGTH, make_paper_target


class TestAntennaPositions:
    def test_single_antenna_degenerate_case(self):
        scene = Scene(2.4868e9, ArraySpec(0, WAVELENGTH / 2, 4.0), link_height=0.9)
        pos = antenna_positions(scene)
        assert pos.shape == (1, 3)
        assert_allclose(pos[0], [4.0, 0.0, 0.9])

    def test_paper_layout_distances(self, paper_scene):
        pos = antenna_positions(paper_scene)
        assert pos.shape == (5, 3)
        d = np.linalg.norm(pos - paper_scene.tx, axis=1)
        expected = [np.hypot(4.0, m * WAVELENGTH / 2) for m in range(-2, 3)]
        assert_allclose(d, expected, rtol=1e-12)

    def test_closed_form_matches_point_distance(self):
        scene = Scene(5.8e9, ArraySpec(7, 0.031, 2.5), link_height=1.2)
        pos = antenna_positions(scene)
        d = np.linalg.norm(pos - scene.tx, axis=1)
        m = scene.array.indices
        assert_allclose(d, np.sqrt(2.5**2 + (m * 0.031) ** 2), rtol=1e-12)

    def test_reflection_symmetry(self, paper_scene):
        pos = antenna_positions(paper_scene)
        assert_allclose(pos, pos[::-1] * [1, -1, 1], rtol=0, atol=0)

    def test_all_at_link_height(self, paper_scene):
        pos = antenna_positions(paper_scene)
        assert_allclose(pos[:, 2], 0.9)


def recurrence_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule Newton's method on the three-term recurrence built, kept as its reference.

    Its nodes are good to 7e-16 and its weights, taken at the x before the
    last step, to about eps n^1.5 relative, against a 40-digit reference at
    n up to 400.
    """
    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))  # descending
    x[n // 2:] = 0.0
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
        if np.max(np.abs(p1 / slope), initial=0.0) < 1e-15:
            break
        x = x - p1 / slope
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    return np.concatenate([-x[:n // 2], x[::-1]]), np.concatenate([w[:n // 2], w[::-1]])


def legendre_moments(x, w, degree: int) -> np.ndarray:
    """sum_k w_k P_j(x_k) for j = 0 .. degree, P_j by the three-term recurrence."""
    moments = np.empty(degree + 1)
    p0, p1 = np.ones_like(x), x
    moments[0] = w.sum()
    for j in range(1, degree + 1):
        moments[j] = w @ p1
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return moments


RULE_ORDERS = [1, 2, 3, 4, 5, 16, 39, 40, 150, 708, 2_000, 10_000]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", RULE_ORDERS)
    def test_integrates_every_legendre_polynomial_below_degree_2n(self, n):
        x, w = gauss_legendre(n)
        moments = legendre_moments(x, w, 2 * n - 1)
        moments[0] -= 2.0
        assert np.max(np.abs(moments)) < 2e-14  # at most 1.3e-14, the sum of w at 10,000

    @pytest.mark.parametrize("n", RULE_ORDERS)
    def test_nodes_odd_weights_even_and_read_only(self, n):
        x, w = gauss_legendre(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        if n % 2:
            assert x[n // 2] == 0.0
        assert not (x.flags.writeable or w.flags.writeable)

    @pytest.mark.parametrize("n", RULE_ORDERS[:-1])  # the recurrence takes 0.8 s at 10,000
    def test_agrees_with_the_recurrence_rule(self, n):
        x, w = gauss_legendre(n)
        rx, rw = recurrence_rule(n)
        # the reference's node at n = 3 is 6.9e-16 off sqrt(3/5), and 4.5e-16 off at 16
        assert np.max(np.abs(x - rx)) <= 1e-15
        assert np.max(np.abs(w / rw - 1.0)) <= 2e-15 * n**1.5
        # away from the ends the reference's weights hold to round-off; with each phase taken
        # as m theta rounded, not reduced exactly, the rule's weights drifted to 3e-12 at 2,000
        inner = np.abs(x) < 0.9
        assert np.max(np.abs(w / rw - 1.0)[inner]) <= 3e-15 * np.sqrt(n)

    def test_the_largest_order_stops_in_two_passes(self, monkeypatch):
        calls = []  # (first v, last v, roots) of each block, v ascending within a pass

        def counted(turns, *args):
            calls.append((turns[0], turns[-1], len(turns)))
            return series(turns, *args)

        series = geometry._legendre_series
        monkeypatch.setattr(geometry, "_legendre_series", counted)
        gauss_legendre.__wrapped__(MAX_ORDER)  # not the cached rule
        passes = 1 + sum(b[0] < a[1] for a, b in zip(calls, calls[1:]))  # each starts over
        roots = (MAX_ORDER + 1) // 2
        # one pass over every root, then one over the few dozen whose first step was largest
        assert passes == 2
        assert roots < sum(c[2] for c in calls) < roots + 100


# The four-point Gauss-Legendre rule on [-1, 1], in closed form.
GL4_NODES = np.sqrt(3.0 / 7.0 + np.array([-2.0, 2.0]) / 7.0 * np.sqrt(6.0 / 5.0))
GL4_WEIGHTS = (18.0 + np.array([1.0, -1.0]) * np.sqrt(30.0)) / 36.0


class TestDiscretizeSheet:
    def test_four_point_rule_on_each_axis(self):
        scene = Scene(1e8, ArraySpec(0, 1.0, 4.0))  # 3 m wavelength: nodes 0.3 m apart on average
        target = TargetSheet((1.0, 0.0), 0.5, 0.5)
        grid = discretize_sheet(target, scene, (4, 4))
        # the 2 nodes above the link plane are built at twice their weight
        assert grid.points.shape == (8, 3)
        assert_allclose(np.unique(grid.points[:, 2]), 0.5 * GL4_NODES, rtol=1e-14)
        across = 0.5 * np.concatenate([GL4_WEIGHTS[::-1], GL4_WEIGHTS])
        assert_allclose(grid.areas, np.outer(across, 2.0 * 0.5 * GL4_WEIGHTS).ravel(), rtol=1e-14)

    def test_paper_grid_shape_and_area(self, paper_scene):
        assert sheet_orders(paper_scene, make_paper_target(), [(1.0, 0.0)]).tolist() == [[20, 40]]
        grid = discretize_sheet(make_paper_target(), paper_scene)
        assert grid.points.shape[0] == 20 * 20  # 40 nodes up the sheet, folded
        assert grid.areas.sum() == pytest.approx(0.99, rel=1e-12)

    def test_density_scales_the_orders(self, paper_scene):
        target = make_paper_target(1.0, 0.3)
        densities = (1.0, 2.0, 4.0, 32.0)
        assert [sheet_orders(paper_scene, target, [(1.0, 0.3)], d).tolist() for d in densities] == [
            [[20, 40]], [[40, 80]], [[80, 156]], [[640, 1_248]],
        ]

    def test_area_sum_exact(self, paper_scene):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ay, az = rng.uniform(0.05, 2.0, size=2)
            target = TargetSheet((1.5, 0.3), ay, az, rotation=rng.uniform(0, np.pi))
            grid = discretize_sheet(target, paper_scene)
            assert grid.areas.sum() == pytest.approx(4 * ay * az, rel=1e-12)
            ny, nz = sheet_orders(paper_scene, target, [target.barycenter])[0]
            assert len(grid.areas) == ny * -(-nz // 2)  # the nodes at or above the link plane

    @pytest.mark.parametrize("half_width, half_height, ny, nz", [
        (0.5, 0.5, 4, 4), (0.3, 0.45, 2, 3), (0.8, 0.3, 6, 2),
    ])
    def test_rule_integrates_the_top_even_degree_exactly(self, half_width, half_height, ny, nz):
        scene = Scene(1e8, ArraySpec(0, 1.0, 4.0), link_height=0.7)
        target = TargetSheet((1.5, -0.2), half_width, half_height, rotation=0.4)
        grid = discretize_sheet(target, scene, (ny, nz))
        offsets = grid.points - [1.5, -0.2, 0.7]
        y = offsets @ [-np.sin(0.4), np.cos(0.4), 0.0]  # along the sheet's in-plane axis
        z = offsets[:, 2]
        assert grid.areas.sum() == pytest.approx(4.0 * half_width * half_height, rel=1e-13)
        # degree 2n - 2 is the highest even degree an n-point rule integrates exactly
        exact = (2.0 * half_width ** (2 * ny - 1) / (2 * ny - 1)
                 * 2.0 * half_height ** (2 * nz - 1) / (2 * nz - 1))
        integral = np.sum(grid.areas * y ** (2 * ny - 2) * z ** (2 * nz - 2))
        assert integral == pytest.approx(exact, rel=1e-12)

    def test_odd_order_keeps_the_middle_node_once(self):
        scene = Scene(1e8, ArraySpec(0, 1.0, 4.0), link_height=1.0)
        target = TargetSheet((1.0, 0.0), 0.5, 0.3)
        grid = discretize_sheet(target, scene, (4, 3))
        assert grid.points.shape == (8, 3)
        # the three-point rule: nodes 0 and +-sqrt(3/5), weights 8/9 and 5/9
        up = 1.0 + 0.3 * np.array([0.0, np.sqrt(0.6)])
        assert_allclose(grid.points[:, 2].reshape(4, 2), [up] * 4, rtol=1e-14)
        across = 0.5 * np.concatenate([GL4_WEIGHTS[::-1], GL4_WEIGHTS])
        assert_allclose(grid.areas, np.outer(across, 0.3 * np.array([8 / 9, 10 / 9])).ravel(),
                        rtol=1e-14)

    @pytest.mark.parametrize("rotation_deg", [0.0, 30.0, -30.0])
    @pytest.mark.parametrize("half_height, nz", [(0.9, 40), (0.885, 39)])
    def test_points_are_the_broadcast_in_contiguous_columns(
        self, paper_scene, rotation_deg, half_height, nz
    ):
        target = TargetSheet((1.3, -0.2), 0.275, half_height, np.radians(rotation_deg))
        ny = 20
        grid = discretize_sheet(target, paper_scene, (ny, nz))
        assert all(grid.points[:, j].flags.c_contiguous for j in range(3))
        u, v = gauss_legendre(ny)[0], gauss_legendre(nz)[0][nz // 2:]
        yy, zz = np.meshgrid(0.275 * u, half_height * v, indexing="ij")
        theta = target.rotation
        center = np.array([1.3, -0.2, paper_scene.link_height])
        expected = (center + yy.reshape(-1, 1) * [-np.sin(theta), np.cos(theta), 0.0]
                    + zz.reshape(-1, 1) * [0.0, 0.0, 1.0])
        assert grid.points.tobytes() == expected.tobytes()  # every bit, the sign of zero too

    @pytest.mark.parametrize("half_count", [0, 2, 8])
    def test_orders_follow_the_path_sweep_rule(self, half_count):
        # the rule written out point by point, for one sheet at a time
        scene = Scene(2.4868e9, ArraySpec(half_count, WAVELENGTH / 2, 4.0), link_height=0.9)
        rng = np.random.default_rng(11)
        targets = [
            TargetSheet((rng.uniform(0.05, 3.95), rng.uniform(-1.5, 1.5)), rng.uniform(0.05, 0.6),
                        rng.uniform(0.05, 1.2), rng.uniform(-np.pi, np.pi))
            for _ in range(40)
        ]
        ends = antenna_positions(scene)[[0, -1]]
        expected = []
        for t in targets:
            in_plane = np.array([-np.sin(t.rotation), np.cos(t.rotation), 0.0])
            center = np.array([*t.barycenter, 0.9])

            def path(s_across, s_up, rx):
                p = center + s_across * t.half_width * in_plane + [0.0, 0.0, s_up * t.half_height]
                return (np.linalg.norm(p - scene.tx) + np.linalg.norm(p - rx)) / WAVELENGTH

            def sweep(line):  # line(s) is the sample point (s_across, s_up) at s in {-1, 0, 1}
                return max(abs(path(*line(-1), rx) - path(*line(0), rx))
                           + abs(path(*line(1), rx) - path(*line(0), rx)) for rx in ends)

            across = max(sweep(lambda s, v=v: (s, v)) for v in (-1, 0, 1))
            up = max(sweep(lambda s, u=u: (u, s)) for u in (-1, 0, 1))
            nodes = (int(np.ceil(np.pi * s + ORDER_MARGIN)) for s in (across, up))
            expected.append([-(-n // 4) * 4 for n in nodes])  # up to a multiple of 4
        got = np.array([sheet_orders(scene, t, [t.barycenter])[0] for t in targets])
        assert got.tolist() == expected
        assert np.all(got % 4 == 0) and np.all(got >= 16)
        # one call at every centre gives each centre's own orders
        centers = [t.barycenter for t in targets]
        for sheet in targets[:3]:
            assert sheet_orders(scene, sheet, centers).tolist() == [
                sheet_orders(scene, sheet, [c])[0].tolist() for c in centers]

    def test_no_sheet_exceeds_the_position_free_bound(self, paper_scene):
        # a half-axis of length a moves r1 + r2 by at most 2a
        rng = np.random.default_rng(5)
        for _ in range(5):
            ay, az = rng.uniform(0.01, 2.0, size=2)
            centers = list(zip(rng.uniform(0.02, 3.98, 50), rng.uniform(-3.0, 3.0, 50)))
            rotations = [rng.uniform(-np.pi, np.pi) for _ in centers]  # one a sheet
            for density in (1.0, 3.7):
                bound = rule_orders(4.0 * np.array([ay, az]) / WAVELENGTH, density)
                for center, rotation in zip(centers, rotations):
                    sheet = TargetSheet(center, ay, az, rotation)
                    assert np.all(sheet_orders(paper_scene, sheet, [center], density) <= bound)

    def test_no_sheets_give_no_orders(self, paper_scene):
        assert sheet_orders(paper_scene, make_paper_target(), []).shape == (0, 2)

    @pytest.mark.parametrize("orders", [(0, 4), (4, 0), (-4, 8), (20.7, 40.2), (math.nan, 40), (40, math.nan)])
    def test_nonpositive_orders_rejected(self, paper_scene, orders):
        # a fraction is refused too, where it would be truncated, and NaN, which passes
        # every comparison
        if any(map(math.isnan, orders)):
            message = "orders must be numbers"
        else:
            message = "orders must be integers" if orders[0] % 1 else "orders must be positive"
        with pytest.raises(ValueError, match=message):
            discretize_sheet(make_paper_target(), paper_scene, orders)

    def test_orders_that_overflow_read_inf(self, paper_scene):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast of an overflowing order to int
            orders = sheet_orders(paper_scene, TargetSheet((1.0, 0.0), 1e300, 0.9), [(1.0, 0.0)])
        assert orders.tolist() == [[np.inf, np.inf]]

    def test_right_angle_rotation_contains_los_direction(self, paper_scene):
        target = make_paper_target(1.0, 0.4, rotation=np.pi / 2)
        grid = discretize_sheet(target, paper_scene)
        # in-plane axis now points along -x: nodes keep the barycenter y
        assert_allclose(grid.points[:, 1], 0.4, atol=1e-12)
        assert np.ptp(grid.points[:, 0]) > 0.5

    def test_nodes_lie_on_rotated_plane(self, paper_scene):
        theta = 0.7
        target = make_paper_target(1.2, -0.2, rotation=theta)
        grid = discretize_sheet(target, paper_scene)
        normal = np.array([np.cos(theta), np.sin(theta), 0.0])
        center = np.array([1.2, -0.2, 0.9])
        offsets = (grid.points - center) @ normal
        assert_allclose(offsets, 0.0, atol=1e-12)

    def test_order_cap_admits_the_largest_shipped_and_desk_grids(self, paper_scene):
        knife_edge = load_preset("knife_edge_validation")
        scene = knife_edge.scene()
        sheet = knife_edge.target_at(*knife_edge.positions[0])
        assert sheet_orders(scene, sheet, knife_edge.positions).tolist() == [
            [708, 556], [700, 560], [688, 560], [672, 560], [660, 556],
        ]
        sheet = np.array([knife_edge.target_half_width, knife_edge.target_half_height])
        bound = rule_orders(4.0 * sheet / scene.wavelength)
        assert bound.tolist() == [784, 740]
        check_orders(*bound)
        # the desk sheet at 32 times the rule's density (step lambda/320)
        assert sheet_orders(paper_scene, make_paper_target(), [(1.0, 0.0)], 32.0).tolist() == [
            [544, 1_248]]

    @pytest.mark.parametrize("half_width, density, order", [
        (500.0, 1.0, "51,928"),  # 1 km wide, 1 mm tall: 51,928 x 16 nodes
        (50.0, 10.0, "50,232"),  # 100 m wide: 50,232 x 152 nodes, folded to 3.8M
    ])
    def test_axis_order_over_the_cap_rejected(
        self, paper_scene, monkeypatch, half_width, density, order
    ):
        def no_rule(n):
            raise AssertionError(f"a {n}-point rule built for a refused grid")

        monkeypatch.setattr(geometry, "gauss_legendre", no_rule)
        target = TargetSheet((1.0, 0.0), half_width, 0.0005)
        orders = sheet_orders(paper_scene, target, [target.barycenter], density)[0]
        with pytest.raises(ValueError, match=f"order {order} .* exceeds the cap of 10,000"):
            discretize_sheet(target, paper_scene, orders)

    def test_grid_over_the_node_budget_rejected_before_allocation(self, paper_scene):
        with pytest.raises(ValueError, match=r"10,001,000 nodes \(1,000 x 20,002\) exceeds the "
                                             r"budget of 10,000,000"):
            discretize_sheet(make_paper_target(), paper_scene, (1_000, 20_002))
        with pytest.raises(ValueError, match="inf nodes"):
            check_orders(np.inf, 16.0)

    @pytest.mark.parametrize("half_width, nodes", [
        (1e150, "2.08478e+153 nodes (1.04239e+152 x 40)"),  # orders past the int64 range
        (1e300, "inf nodes (inf x inf)"),  # the sheet's distances overflow
    ])
    def test_default_orders_too_large_for_an_int_get_the_budget_message(
        self, paper_scene, half_width, nodes
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast of an overflowing order to int
            with pytest.raises(ValueError) as err:
                discretize_sheet(TargetSheet((1.0, 0.0), half_width, 0.9), paper_scene)
        assert str(err.value) == (
            f"quadrature grid of {nodes} exceeds the budget of 10,000,000 nodes"
        )


class TestFrameProperties:
    def test_mirror_maps_node_distances_to_opposite_antenna(self, paper_scene):
        pos = antenna_positions(paper_scene)
        tx = paper_scene.tx
        for m, y in ((2, 0.3), (1, -0.6)):
            ga = discretize_sheet(make_paper_target(1.0, y), paper_scene)
            gb = discretize_sheet(make_paper_target(1.0, -y), paper_scene)
            ra1 = np.sort(np.linalg.norm(ga.points - tx, axis=1))
            rb1 = np.sort(np.linalg.norm(gb.points - tx, axis=1))
            assert_allclose(rb1, ra1, rtol=1e-12)
            ra2 = np.sort(np.linalg.norm(ga.points - pos[m + 2], axis=1))
            rb2 = np.sort(np.linalg.norm(gb.points - pos[-m + 2], axis=1))
            assert_allclose(rb2, ra2, rtol=1e-12)


class TestValidation:
    def test_coupling_warning_raised_below_quarter_wavelength(self):
        with pytest.warns(UserWarning, match="lambda/4"):
            Scene(2.4868e9, ArraySpec(2, 0.2 * WAVELENGTH, 4.0), link_height=0.9)

    def test_coupling_warning_points_at_the_caller(self):
        # not at the dataclass-generated __init__, which reads as "<string>"
        with pytest.warns(UserWarning, match="lambda/4") as record:
            Scene(2.4868e9, ArraySpec(2, 0.2 * WAVELENGTH, 4.0))
        assert [w.filename for w in record] == [__file__]

    def test_no_warning_above_quarter_wavelength(self, recwarn):
        Scene(2.4868e9, ArraySpec(2, 0.3 * WAVELENGTH, 4.0), link_height=0.9)
        assert not [w for w in recwarn if "lambda/4" in str(w.message)]

    def test_rejects_bad_array(self):
        with pytest.raises(ValueError):
            ArraySpec(-1, 0.06, 4.0)
        with pytest.raises(ValueError):
            ArraySpec(2, 0.0, 4.0)
        with pytest.raises(ValueError):
            ArraySpec(2, 0.06, -4.0)

    def test_rejects_bad_sheet(self):
        with pytest.raises(ValueError):
            TargetSheet((1.0, 0.0), 0.0, 0.9)
        with pytest.raises(ValueError):
            TargetSheet((1.0, 0.0), 0.275, -0.1)

    @pytest.mark.parametrize("make, args, field", [
        (ArraySpec, (math.inf, 0.06, 4.0), "half_count"),  # not an OverflowError
        (ArraySpec, (math.nan, 0.06, 4.0), "half_count"),
        (ArraySpec, (2, math.nan, 4.0), "spacing"),
        (ArraySpec, (2, math.inf, 4.0), "spacing"),
        (ArraySpec, (2, 0.06, math.nan), "central_distance"),
        (ArraySpec, (2, 0.06, math.inf), "central_distance"),
        (Scene, (math.nan, ArraySpec(2, 0.06, 4.0)), "carrier_frequency"),
        (Scene, (math.inf, ArraySpec(2, 0.06, 4.0)), "carrier_frequency"),
        (Scene, (1e-320, ArraySpec(2, 0.06, 4.0)), "carrier_frequency"),  # wavelength inf
        (Scene, (2.4868e9, ArraySpec(2, 0.06, 4.0), math.nan), "link_height"),
        (Scene, (2.4868e9, ArraySpec(2, 0.06, 4.0), -math.inf), "link_height"),
        (TargetSheet, ((math.nan, 0.0), 0.275, 0.9), "barycenter"),
        (TargetSheet, ((1.0, math.inf), 0.275, 0.9), "barycenter"),
        (TargetSheet, ((1.0, 0.0), math.nan, 0.9), "half_width"),
        (TargetSheet, ((1.0, 0.0), math.inf, 0.9), "half_width"),
        (TargetSheet, ((1.0, 0.0), 0.275, math.nan), "half_height"),
        (TargetSheet, ((1.0, 0.0), 0.275, math.inf), "half_height"),
        (TargetSheet, ((1.0, 0.0), 0.275, 0.9, math.nan), "rotation"),
        (TargetSheet, ((1.0, 0.0), 0.275, 0.9, -math.inf), "rotation"),
    ])
    def test_rejects_non_finite_fields_by_name(self, make, args, field):
        with pytest.raises(ValueError, match=f"^{field} (must be|is too small)"):
            make(*args)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Scene(0.0, ArraySpec(2, 0.06, 4.0))
