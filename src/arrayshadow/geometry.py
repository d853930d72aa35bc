"""Link-layout geometry: array placement, target sheet, quadrature grids.

Frame convention: the central line of sight runs along +x from the
transmitter, the array axis runs along y, z is vertical. Transmitter and
all receiving antennas sit in the horizontal plane at the link height h.
Target positions are given as (x, y) in that plane; the sheet extends
vertically from h - a_z to h + a_z.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# Wavelengths: the default and largest quadrature step. The step is a node
# density: a scenario at step s puts MAX_STEP / s times the rule's nodes on each
# axis (sheet_orders).
MAX_STEP = 0.1
# Nodes added to pi times an axis's path sweep. Over 150 random desk geometries
# (M in {2, 4, 8}) the worst relative error against a 96 x 192 solve was 4e-11
# at a margin of 10, 1.5e-12 at 12 and 7.8e-13 at 14, under 9-digit exports.
ORDER_MARGIN = 14
# Largest quadrature grid built, refused before allocation. A checked desk solve
# builds about 500 + 400 folded nodes per position, and one 0.02 m from the
# transmitter doubles to 60,928; the knife_edge_validation sheet takes up to
# 196,824. A solve peaks at about 57 B per node of its larger grid, some 570 MB
# at the budget.
MAX_GRID_NODES = 10_000_000
# Largest Gauss-Legendre order along one sheet axis, refused before the rule is
# built: the rule costs O(n^2) flops, about 0.2 s at 10,000. The
# knife_edge_validation sheet starts at orders up to 708 x 560 under a parse-time
# bound of 784 x 740.
MAX_ORDER = 10_000


@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear array of 2M+1 elements orthogonal to the central LoS.

    Elements are indexed m = -M .. +M; element 0 sits on the line of sight
    at ``central_distance`` from the transmitter.
    """

    half_count: int          # M
    spacing: float           # d_a, m
    central_distance: float  # d_0, m

    def __post_init__(self):
        # NaN and inf fail the chained comparisons
        if not 0 <= self.half_count < math.inf or int(self.half_count) != self.half_count:
            raise ValueError("half_count must be a non-negative integer")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")
        if not 0.0 < self.central_distance < math.inf:
            raise ValueError("central_distance must be positive and finite")

    @property
    def num_elements(self) -> int:
        return 2 * self.half_count + 1

    @property
    def indices(self) -> np.ndarray:
        """Signed element indices -M .. +M."""
        return np.arange(-self.half_count, self.half_count + 1)


@dataclass(frozen=True)
class Scene:
    """Fixed link layout: carrier, link height and array; transmitter at (0, 0, h)."""

    carrier_frequency: float            # Hz
    array: ArraySpec
    link_height: float = 0.0            # h, m

    def __post_init__(self):
        if not 0.0 < self.carrier_frequency < math.inf:
            raise ValueError("carrier_frequency must be positive and finite")
        if self.wavelength == math.inf:  # parse refuses the same
            raise ValueError("carrier_frequency is too small: the wavelength overflows")
        if not math.isfinite(self.link_height):
            raise ValueError("link_height must be finite")
        if self.array.spacing <= self.wavelength / 4.0:
            warnings.warn(
                f"antenna spacing {self.array.spacing:.4g} m is <= lambda/4 "
                f"({self.wavelength / 4.0:.4g} m); the no-mutual-coupling "
                "assumption is violated",
                stacklevel=3,  # past the dataclass __init__ to its caller
            )

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def tx(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.link_height])


@dataclass(frozen=True)
class TargetSheet:
    """Vertical absorbing rectangle standing in the link area.

    ``rotation`` turns the sheet's horizontal in-plane axis about the
    vertical axis through the barycenter; at rotation 0 the face is
    orthogonal to the central line of sight (broadside).
    """

    barycenter: tuple[float, float]  # (x, y), m
    half_width: float                # a_y, m
    half_height: float               # a_z, m
    rotation: float = 0.0            # theta, rad

    def __post_init__(self):
        object.__setattr__(self, "barycenter", (float(self.barycenter[0]), float(self.barycenter[1])))
        if not all(map(math.isfinite, self.barycenter)):
            raise ValueError("barycenter must be finite")
        if not 0.0 < self.half_width < math.inf:
            raise ValueError("half_width must be positive and finite")
        if not 0.0 < self.half_height < math.inf:
            raise ValueError("half_height must be positive and finite")
        if not math.isfinite(self.rotation):
            raise ValueError("rotation must be finite")


@dataclass(frozen=True)
class QuadratureGrid:
    """Quadrature nodes on a target sheet and the area each one stands for."""

    points: np.ndarray  # shape (N, 3)
    areas: np.ndarray   # shape (N,), m^2


def sheet_span_error(x, half_width, rotation, central_distance) -> str | None:
    """Why a sheet centred at ``x`` is outside the link, or None when it lies inside.

    The sheet spans x - r to x + r along the line of sight, with
    r = half_width |sin rotation|, and must lie strictly between the
    transmitter (x = 0) and the array plane (x = ``central_distance``).
    NaN fails no comparison, so it gives None.
    """
    reach = half_width * abs(math.sin(rotation))
    if x - reach <= 0.0 or x + reach >= central_distance:
        return (f"the sheet spans x = {x - reach:g} to {x + reach:g} m, not strictly between "
                f"the transmitter (x = 0) and the array (x = {central_distance:g} m)")
    return None


def antenna_positions(scene: Scene) -> np.ndarray:
    """Positions of all 2M+1 receiving antennas, ordered m = -M .. +M."""
    spec = scene.array
    offsets = np.zeros((spec.num_elements, 3))
    offsets[:, 0] = spec.central_distance
    offsets[:, 1] = spec.indices * spec.spacing
    return scene.tx + offsets


# Elements of one (roots x frequencies) block of a rule's cosine series: its two
# buffers take 1 MB.
_RULE_BLOCK = 1 << 16
# The first two zeros of the Bessel function J_0: the Newton starts of the two
# Gauss-Legendre roots nearest 1.
_J0_ZEROS = (2.404825557695773, 5.520078110286311)


# Filled by the first solve at each order. A checked solve needs four: its
# grid's two and those of its check, each 4 lower; a run's orders are multiples of 4.
# A rule costs O(n^2) flops: about 0.1 ms at n = 40, 1.4 ms at 708 and 0.2 s at
# 10,000 on a 2-vCPU Xeon host.
@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method in theta, x = cos theta, on the cosine series of P_n
    (P. N. Swarztrauber, SIAM J. Sci. Comput. 24 (2002) 945-954),

        P_n(cos theta) = sum_k a_k cos((n - 2k) theta),  k = 0 .. n // 2,

    with a_k = 2 g_k g_(n-k), halved for n - 2k = 0, and
    g_k = prod_(i <= k) (2i - 1) / (2i), finds the roots in [0, 1). The a_k
    are scaled to sum to P_n(1) = 1. Newton starts from Tricomi's estimate
    in theta, phi + (1/(8n^2) - 1/(8n^3)) cot phi with
    phi = pi (4k - 1) / (4n + 2), but at the two roots nearest 1 from
    psi + (psi cot psi - 1) / (8 psi nu^2), with psi = j_(0,k) / nu and
    nu = n + 1/2, where Tricomi's is worst. A root is done after a step below
    sqrt(eps) / n: the step leaves an error of about cot(theta) / 2 times
    its square, and dP_n/dtheta, carried across it by Legendre's equation
    (at a root d^2P_n/dtheta^2 = -cot(theta) dP_n/dtheta), one of about
    n^2 / 2 times its square, both at round-off. The series resolves theta
    far more finely (``_legendre_series``), so every order stops: in two
    passes from n = 3 up. The weights are 2 / (dP_n/dtheta)^2, with no
    1 - x^2 to cancel at the ends; mirroring the roots makes the nodes
    exactly odd and the weights exactly even about 0.
    """
    k = np.arange(n // 2 + 1)
    i = np.arange(1.0, n + 1.0)
    g = np.ones(n + 1)
    np.cumprod((i - 0.5) / i, out=g[1:])
    a = 2.0 * g[k] * g[n - k]
    if n % 2 == 0:
        a[-1] *= 0.5  # the constant term
    a /= a.sum()
    m = n - 2.0 * k  # the frequencies, descending
    am = a * m
    count = (n + 1) // 2
    phi = np.pi * (4.0 * np.arange(1, count + 1) - 1.0) / (4 * n + 2)
    theta = phi + (1.0 / (8.0 * n * n) - 1.0 / (8.0 * n**3)) / np.tan(phi)  # ascending
    psi = np.array(_J0_ZEROS[:n // 2]) / (n + 0.5)  # not an odd order's middle root
    theta[:len(psi)] = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * (n + 0.5) ** 2)
    turns = theta / (2.0 * np.pi)  # v = theta / (2 pi)
    rows = max(1, _RULE_BLOCK // len(m))
    buffers = np.empty((2, min(rows, count), len(m)))
    slope = np.empty(count)  # dP_n/dtheta at each root
    todo = np.arange(count)
    tol = 2.0**-26 / n  # sqrt(eps) / n
    for _ in range(10):  # two at every order from 3 to MAX_ORDER
        if not todo.size:
            break
        p, dp = np.empty((2, todo.size))
        for b in range(0, todo.size, rows):
            v = turns[todo[b:b + rows]]
            p[b:b + rows], dp[b:b + rows] = _legendre_series(v, m, a, am, *buffers[:, :len(v)])
        step = p / dp  # theta - step is Newton's next theta
        v = turns[todo] = turns[todo] - step / (2.0 * np.pi)
        slope[todo] = dp * (1.0 + step / np.tan(2.0 * np.pi * v))
        todo = todo[np.abs(step) >= tol]
    x = np.sin(2.0 * np.pi * (0.25 - turns))  # cos theta, to full relative precision near 0
    x[n // 2:] = 0.0  # an odd order's middle root, where P_n is odd
    w = 2.0 / (slope * slope)
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    weights = np.concatenate([w[:n // 2], w[::-1]])
    for a in (nodes, weights):
        a.flags.writeable = False  # shared through the cache
    return nodes, weights


def _legendre_series(turns, m, a, am, t, r) -> tuple[np.ndarray, np.ndarray]:
    """P_n and dP_n/dtheta at theta = 2 pi ``turns``, from P_n's cosine series.

    ``m`` holds the series' frequencies, ``a`` their coefficients and ``am``
    their products; ``t`` and ``r`` are (len(turns), len(m)) buffers. With
    tau = tan(m theta / 2) = tan(pi m v), cos(m theta) = 2 / (1 + tau^2) - 1
    and sin(m theta) = 2 tau / (1 + tau^2), as in the field kernel. m v is
    reduced to [-1/2, 1/2] exactly: v's leading bits times m are exact, and
    so is their remainder, so each phase is good to a few ulps of pi / 2
    rather than of m theta; the rest of v times m is below 2^-26 at
    MAX_ORDER. The sums are numpy's pairwise sums, as in the field kernel.
    """
    big = 2.0 ** (int(m[0]).bit_length() - 1)  # m[0] = n
    lead = turns + big
    lead -= big  # v to a multiple of the ulp of big, 2^-52 big: m times it is exact
    np.multiply(lead[:, None], m, out=t)
    t -= np.rint(t, out=r)
    t += np.multiply((turns - lead)[:, None], m, out=r)
    t *= np.pi
    tau = np.tan(t, out=t)
    np.multiply(tau, tau, out=r)
    r += 1.0
    np.divide(1.0, r, out=r)  # (1 + cos m theta) / 2
    tau *= r  # sin(m theta) / 2
    r *= a
    tau *= am
    p = 2.0 * np.add.reduce(r, axis=1) - 1.0  # the a sum to 1
    return p, -2.0 * np.add.reduce(tau, axis=1)


def rule_orders(sweep, density: float = 1.0) -> np.ndarray:
    """Gauss-Legendre orders for path sweeps ``sweep`` in wavelengths.

    Each gets ``ceil(pi * sweep + ORDER_MARGIN)`` nodes, times ``density``,
    rounded up to a multiple of 4, as floats (inf when the product
    overflows). The multiples of 4 keep a run's orders, and those of their
    checks 4 lower, to a handful of cached rules.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return 4.0 * np.ceil(np.ceil(np.pi * np.asarray(sweep) + ORDER_MARGIN) * density / 4.0)


# Distances that overflow give inf, and inf - inf a NaN sweep, read as inf.
@np.errstate(over="ignore", invalid="ignore")
def path_sweeps(scene: Scene, sheet: TargetSheet, centers) -> np.ndarray:
    """Path sweeps (across, up) of ``sheet`` at each (x, y) row of ``centers``, in wavelengths.

    The path length r1 + r2, in wavelengths, is sampled at the corners, edge
    midpoints and centre of the sheet's shape at each centre, for the two
    outermost antennas. An axis's path sweep is |p(-1) - p(0)| + |p(1) - p(0)|
    along each of its three sample lines, the worst over the lines and the
    two antennas; inf when the distances overflow or a centre is not finite.
    Raises ValueError unless ``centers`` holds (x, y) rows (``pair_rows``).
    """
    centers = pair_rows(centers)
    center = np.column_stack([centers, np.full(len(centers), scene.link_height)])
    in_plane = np.array([-np.sin(sheet.rotation), np.cos(sheet.rotation), 0.0])
    s = np.array([-1.0, 0.0, 1.0])
    # samples[p, i, j] = center + a_y s_i in_plane + a_z s_j vertical, shape (P, 3, 3, 3)
    samples = (center[:, None, None, :]
               + ((sheet.half_width * s)[:, None] * in_plane)[:, None, :]
               + (sheet.half_height * s)[:, None] * np.array([0.0, 0.0, 1.0]))
    r1 = np.linalg.norm(samples - scene.tx, axis=-1)
    ends = antenna_positions(scene)[[0, -1]]
    path = np.stack([r1 + np.linalg.norm(samples - rx, axis=-1) for rx in ends], axis=1)
    path /= scene.wavelength  # (P, antenna, across, up)
    across = np.abs(path[:, :, 0] - path[:, :, 1]) + np.abs(path[:, :, 2] - path[:, :, 1])
    up = np.abs(path[..., 0] - path[..., 1]) + np.abs(path[..., 2] - path[..., 1])
    sweep = np.stack([across.max(axis=(1, 2)), up.max(axis=(1, 2))], axis=1)
    return np.where(np.isnan(sweep), np.inf, sweep)


def sheet_orders(scene: Scene, sheet: TargetSheet, centers, density: float = 1.0) -> np.ndarray:
    """Start orders (across, up) of ``sheet`` at each row of ``centers``, one row each, as floats.

    Each axis gets ``rule_orders`` of its ``path_sweeps`` at ``density``:
    a start, to be checked (``em_model.converged_field_ratio_vectors``), as
    the samples miss the 1/r growth near a link end. No budget applies, so
    an order too large for an int reads inf: cast only once one bounds them.
    """
    return rule_orders(path_sweeps(scene, sheet, centers), density)


def pair_rows(values, count: int | None = None) -> np.ndarray:
    """``values`` as float rows of two, or ValueError; an empty input has none.

    With no ``count`` the rows are (x, y) centres, any number of them; with
    one, ``count`` (across, up) orders, one per centre, always as a copy.
    """
    rows = np.asarray(values, dtype=float) if count is None else np.array(values, dtype=float)
    rows = rows.reshape(0, 2) if rows.shape == (0,) else rows
    if count is None and (rows.ndim != 2 or rows.shape[1] != 2):
        raise ValueError(f"centers must be (x, y) rows, got shape {rows.shape}")
    if count is not None and rows.shape != (count, 2):
        raise ValueError(f"orders must give one (across, up) row per centre: {count:,} centre(s), "
                         f"orders of shape {rows.shape}")
    return rows


def check_orders(across, up) -> None:
    """Raise ValueError when the (across, up) grid exceeds a budget.

    The budgets are ``MAX_GRID_NODES`` on the ``across * ceil(up / 2)`` nodes
    that ``discretize_sheet`` builds and ``MAX_ORDER`` on either order. Float
    and infinite orders are read as given, so a bound can be checked; a
    count past the int64 range is spelled in ``g`` format.
    """
    nodes = across * np.ceil(up / 2.0)
    if nodes > MAX_GRID_NODES:
        raise ValueError(
            f"quadrature grid of {_count(nodes)} nodes ({_count(across)} x {_count(up)}) "
            f"exceeds the budget of {MAX_GRID_NODES:,} nodes"
        )
    if max(across, up) > MAX_ORDER:
        raise ValueError(
            f"quadrature order {_count(max(across, up))} along the sheet exceeds the cap of "
            f"{MAX_ORDER:,} nodes per axis"
        )


def _count(value) -> str:
    """``value`` in full with thousands separators, or in ``g`` format past the int64 range."""
    return f"{value:,.0f}" if abs(value) < 2.0**63 else f"{value:g}"


def discretize_sheet(target: TargetSheet, scene: Scene, orders=None) -> QuadratureGrid:
    """Tensor Gauss-Legendre rule on the (possibly rotated) sheet, folded about z = h.

    ``orders`` is (across, up), the orders along the sheet's width and
    height; by default the sheet's ``sheet_orders``. Raises ValueError
    before allocation when the grid exceeds a budget (``check_orders``) or
    an order is not a positive integer. Only the nodes with z >= h are
    built, each at twice its weight, but the node at z = h of an odd order
    keeps its own weight; the weights sum to the sheet area. The one-grid
    case of ``discretize_sheets``.
    """
    if orders is None:
        orders = sheet_orders(scene, target, [target.barycenter])[0]
    return discretize_sheets(scene, target, [target.barycenter], [orders])


def folded_nodes(across: int, up: int) -> int:
    """Nodes of the folded (across, up) grid that ``discretize_sheet`` builds."""
    return across * (up - up // 2)


def discretize_sheets(scene: Scene, sheet: TargetSheet, centers, orders) -> QuadratureGrid:
    """The ``discretize_sheet`` grids of ``sheet`` at each (x, y) row of ``centers``, end to end.

    Only the sheet's shape is read. Grid i holds ``folded_nodes(*orders[i])``
    nodes at ``centers[i]`` and follows grid i - 1. Consecutive grids of
    equal orders share one rule: its offsets along the sheet, its heights
    and its areas are computed once, and their nodes are placed in one
    broadcast per coordinate. Raises ValueError before allocation when
    ``centers`` is not (x, y) rows (``pair_rows``) or a centre is not
    finite, when ``orders`` does not give one row per centre
    (``pair_rows``), when a grid exceeds a budget (``check_orders``), read
    as given, before the cast to int, or when an order is NaN or not a
    positive integer.
    """
    centers = pair_rows(centers)
    finite = np.isfinite(centers).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))  # the first centre that is not finite
        x, y = centers[i]
        raise ValueError(f"barycenter must be finite, got ({x:g}, {y:g}) at centre {i}")
    orders = pair_rows(orders, len(centers)).tolist()
    for ny, nz in dict.fromkeys(map(tuple, orders)):  # each distinct orders once, in order
        if math.isnan(ny) or math.isnan(nz):  # NaN passes every comparison below
            raise ValueError(f"quadrature orders must be numbers, got {ny:g} x {nz:g}")
        check_orders(ny, nz)
        if min(ny, nz) < 1:
            raise ValueError(f"quadrature orders must be positive, got {ny:g} x {nz:g}")
        if ny % 1 > 0 or nz % 1 > 0:
            raise ValueError(f"quadrature orders must be integers, got {ny:g} x {nz:g}")
    orders = [(int(ny), int(nz)) for ny, nz in orders]
    ay, az, theta = sheet.half_width, sheet.half_height, sheet.rotation
    total = sum(folded_nodes(*o) for o in orders)
    points = np.empty((total, 3), order="F")  # each coordinate the distances read is contiguous
    areas = None if len(orders) == 1 else np.empty(total)
    first = end = 0
    for (ny, nz), run in itertools.groupby(orders):
        count = sum(1 for _ in run)
        run_centers, first = centers[first:first + count], first + count
        u, wu = gauss_legendre(ny)
        # The TX, every antenna and the sheet centre share z = h, so r1 and r2 are
        # even in z - h and each node below h adds what its mirror node above adds.
        v, wv = (a[nz // 2:] for a in gauss_legendre(nz))
        wv = np.where(v > 0.0, 2.0 * wv, wv)  # an odd order's middle node v = 0 counts once
        rule_areas = np.outer(ay * wu, az * wv).ravel()
        start, end = end, end + count * len(rule_areas)
        # node (i, j) of grid p sits at c_p + a_y u_i in_plane + a_z v_j vertical, in the
        # (across, up) mesh raveled; the in-plane axis is horizontal, so z = h + a_z v_j
        shape = (count, ny, len(v))
        for j, direction in enumerate((-np.sin(theta), np.cos(theta))):
            np.add((ay * u * direction)[:, None], run_centers[:, j, None, None],
                   out=points[start:end, j].reshape(shape))
        np.add(az * v, scene.link_height, out=points[start:end, 2].reshape(shape))
        if areas is None:
            areas = rule_areas
        else:
            areas[start:end].reshape(count, -1)[...] = rule_areas
    return QuadratureGrid(points=points, areas=areas)
