"""Clustered geometric narrowband MIMO channel model.

Builds time-indexed channel matrices from path clusters (per-ray complex
gains, angles, delays, Doppler shifts), builds overcomplete steering
dictionaries whose grids sampled rays can be snapped to, and evolves
realizations step by step for tracking studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ShapeError

SPEED_OF_LIGHT = 299_792_458.0

# Model constants: a 28 GHz carrier and 0.1 us sampling.  Arrays are
# spaced at half a wavelength, so the wavelength cancels in every
# steering vector, and delays are drawn in fractions of the sample
# period, so the period cancels in the pulse; both act only through the
# per-step Doppler phase 2*pi*velocity*Ts/wavelength*cos(aspect), which
# ``ChannelParams.velocity`` sets.
CARRIER_WAVELENGTH = SPEED_OF_LIGHT / 28e9
SAMPLE_PERIOD = 1e-7
# Roll-off of the raised-cosine pulse that weighs each ray.
PULSE_ROLLOFF = 0.3

# Angles match a grid point when their sines agree within this tolerance.
GRID_MATCH_TOL = 1e-9

# Broadside-relative range [lo, hi) of off-grid cluster mean angles,
# covering the full spatial band.
DEFAULT_DOMAIN = (-math.pi / 2.0, math.pi / 2.0)


def steering_vector(n: int, angle: float) -> np.ndarray:
    """Unit-norm response of a half-wavelength uniform linear array.

    Entry k is exp(j * k * pi * sin(angle)) / sqrt(n) for k = 0..n-1.
    """
    if n < 1:
        raise ShapeError(f"array size must be >= 1, got {n}")
    # (2*pi/wavelength) * (wavelength/2) per unit sine; at
    # CARRIER_WAVELENGTH that float product is np.pi exactly.
    phase = np.pi * math.sin(angle)
    return np.exp(1j * phase * np.arange(n)) / math.sqrt(n)


def _pulse(delay: float) -> float:
    """Unit-peak raised-cosine pulse p(-delay) of roll-off ``PULSE_ROLLOFF``;
    ray delays lie in [0, Ts/4), far inside its first lobe."""
    x = -delay / SAMPLE_PERIOD
    y = math.pi * x
    sinc = math.sin(y) / y if y else 1.0
    return sinc * math.cos(math.pi * PULSE_ROLLOFF * x) / (1.0 - (2.0 * PULSE_ROLLOFF * x) ** 2)


@dataclass(frozen=True)
class ChannelParams:
    """Static geometry and waveform parameters of the channel model.

    The 28 GHz carrier, 0.1 us sampling and 0.3 pulse roll-off are model
    constants (``CARRIER_WAVELENGTH``, ``SAMPLE_PERIOD``,
    ``PULSE_ROLLOFF``), and ``velocity`` (m/s, default 120 km/h) alone
    sets the Doppler.  Both arrays are uniform linear arrays with
    half-wavelength spacing, and every cluster holds
    ``rays_per_cluster`` rays.  Ray gains are scaled by
    sqrt(n_bs * n_ms / total ray count), so that E||H||_F^2 = n_bs * n_ms.
    """

    n_bs: int = 8
    n_ms: int = 8
    n_clusters: int = 2
    rays_per_cluster: int = 1
    angle_spread: float = 0.1
    velocity: float = 120.0 / 3.6

    def __post_init__(self):
        if min(self.n_bs, self.n_ms) < 1:
            raise ConfigError("antenna counts must be positive")
        if self.n_clusters < 1:
            raise ConfigError("need at least one cluster")
        if not isinstance(self.rays_per_cluster, int) or self.rays_per_cluster < 1:
            raise ConfigError("rays_per_cluster must be a positive integer")
        # The angle domain is pi wide, and a bounded spread keeps every
        # drawn offset finite.
        if not 0.0 <= self.angle_spread <= math.pi:
            raise ConfigError(f"angle_spread must lie in [0, pi], got {self.angle_spread}")
        # No velocity reaches the speed of light, and a huge one overflows
        # the Doppler shift into NaN ray gains.
        if not abs(self.velocity) < SPEED_OF_LIGHT:
            raise ConfigError(
                f"velocity must be finite with |velocity| < {SPEED_OF_LIGHT} m/s, "
                f"got {self.velocity}"
            )

    def steering_bs(self, angle: float) -> np.ndarray:
        return steering_vector(self.n_bs, angle)

    def steering_ms(self, angle: float) -> np.ndarray:
        return steering_vector(self.n_ms, angle)


@dataclass(frozen=True)
class Ray:
    """Single propagation path within a cluster."""

    gain: complex
    aoa_offset: float
    aod_offset: float
    delay: float
    doppler: float


@dataclass(frozen=True)
class PathCluster:
    """Scattering cluster: mean angles and its rays."""

    mean_aoa: float
    mean_aod: float
    rays: tuple[Ray, ...]

    def __post_init__(self):
        if len(self.rays) < 1:
            raise ConfigError("cluster holds no rays")


@dataclass(frozen=True)
class ChannelRealization:
    """Snapshot of the channel at one time index.

    ``matrix`` caches the narrowband channel and is derived, never set
    by callers.
    """

    params: ChannelParams
    clusters: tuple[PathCluster, ...]
    time_index: int = 0
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", channel_matrix(self))

    @property
    def total_rays(self) -> int:
        return sum(len(c.rays) for c in self.clusters)


def channel_matrix(real: ChannelRealization) -> np.ndarray:
    """Narrowband channel matrix.

    Sums scaled per-ray outer products a_ms(aoa) @ a_bs(aod)^H weighted by
    the complex gain and the pulse sampled at -delay.
    """
    params = real.params
    scale = math.sqrt(params.n_bs * params.n_ms / real.total_rays)
    h = np.zeros((params.n_ms, params.n_bs), dtype=np.complex128)
    for cluster in real.clusters:
        for ray in cluster.rays:
            a_ms = params.steering_ms(cluster.mean_aoa - ray.aoa_offset)
            a_bs = params.steering_bs(cluster.mean_aod - ray.aod_offset)
            h += (scale * ray.gain * _pulse(ray.delay)) * np.outer(a_ms, a_bs.conj())
    return h


@dataclass(frozen=True)
class AngularDictionary:
    """Overcomplete steering dictionaries on sine-uniform angle grids."""

    a_ms: np.ndarray
    a_bs: np.ndarray
    grid_aoa: np.ndarray
    grid_aod: np.ndarray

    @property
    def size_aoa(self) -> int:
        return self.grid_aoa.size

    @property
    def size_aod(self) -> int:
        return self.grid_aod.size


def _sin_grid(size: int) -> np.ndarray:
    # Sines -1 and +1 alias to the same steering vector, so the endpoint
    # is dropped.  At one point per antenna the columns then form an
    # orthonormal DFT basis.
    return np.arcsin(-1.0 + 2.0 * np.arange(size) / size)


def make_dictionary(params: ChannelParams, size_ms: int, size_bs: int) -> AngularDictionary:
    """Build AoA/AoD steering dictionaries of ``size_ms`` and ``size_bs`` columns.

    Grid points are uniform in sin(angle) over the full band [-1, 1),
    which makes the columns a uniform spatial-frequency grid.
    """
    if size_ms < params.n_ms or size_bs < params.n_bs:
        raise ConfigError("dictionary grids must be at least the antenna count")
    grid_aoa = _sin_grid(size_ms)
    grid_aod = _sin_grid(size_bs)
    a_ms = np.stack([params.steering_ms(a) for a in grid_aoa], axis=1)
    a_bs = np.stack([params.steering_bs(a) for a in grid_aod], axis=1)
    return AngularDictionary(a_ms=a_ms, a_bs=a_bs, grid_aoa=grid_aoa, grid_aod=grid_aod)


def _grid_index(angle: float, grid: np.ndarray) -> int | None:
    dist = np.abs(np.sin(grid) - math.sin(angle))
    idx = int(np.argmin(dist))
    return idx if dist[idx] < GRID_MATCH_TOL else None


def _snap_offset(mean: float, offset: float, grid: np.ndarray) -> float:
    """Adjust an angle offset so mean - offset lands exactly on the grid."""
    dist = np.abs(np.sin(grid) - math.sin(mean - offset))
    return mean - float(grid[int(np.argmin(dist))])


def sample_realization(
    params: ChannelParams,
    rng: np.random.Generator,
    dictionary: AngularDictionary | None = None,
) -> ChannelRealization:
    """Draw a random realization; grid snapping keeps rays on-dictionary.

    Gains are i.i.d. circularly-symmetric unit-variance complex Gaussian,
    Doppler shifts come from uniform aspect angles at ``params.velocity``.
    """
    clusters = []
    occupied: set = set()
    for _ in range(params.n_clusters):
        cluster = _draw_cluster(params, rng, dictionary, occupied)
        clusters.append(cluster)
        if dictionary is not None:
            occupied |= _cluster_cells(cluster, dictionary)
    return ChannelRealization(params=params, clusters=tuple(clusters))


def _cluster_cells(cluster: PathCluster, dictionary: AngularDictionary) -> set:
    """Grid cells (i, j) occupied by a cluster's snapped rays."""
    cells = set()
    for ray in cluster.rays:
        i = _grid_index(cluster.mean_aoa - ray.aoa_offset, dictionary.grid_aoa)
        j = _grid_index(cluster.mean_aod - ray.aod_offset, dictionary.grid_aod)
        if i is not None and j is not None:
            cells.add((i, j))
    return cells


def _draw_cluster(
    params: ChannelParams,
    rng: np.random.Generator,
    dictionary: AngularDictionary | None,
    occupied: set | None = None,
) -> PathCluster:
    # Grid-snapped draws reject AoA rows and AoD columns already taken by
    # earlier clusters.  Sharing an axis cell collapses the matrix rank
    # below the ray count, which breaks every rank-based sparsity budget;
    # well-separated clusters are the operating assumption here.
    for _ in range(64):
        cluster = _draw_cluster_once(params, rng, dictionary)
        if dictionary is None or not occupied:
            return cluster
        rows = {i for i, _ in occupied}
        cols = {j for _, j in occupied}
        cells = _cluster_cells(cluster, dictionary)
        if not any(i in rows or j in cols for i, j in cells):
            return cluster
    return cluster


def _draw_cluster_once(
    params: ChannelParams,
    rng: np.random.Generator,
    dictionary: AngularDictionary | None,
) -> PathCluster:
    if dictionary is not None:
        mean_aoa = float(rng.choice(dictionary.grid_aoa))
        mean_aod = float(rng.choice(dictionary.grid_aod))
    else:
        mean_aoa = float(rng.uniform(*DEFAULT_DOMAIN))
        mean_aod = float(rng.uniform(*DEFAULT_DOMAIN))
    rays = []
    for _ in range(params.rays_per_cluster):
        aoa_off = float(rng.normal(0.0, params.angle_spread))
        aod_off = float(rng.normal(0.0, params.angle_spread))
        if dictionary is not None:
            aoa_off = _snap_offset(mean_aoa, aoa_off, dictionary.grid_aoa)
            aod_off = _snap_offset(mean_aod, aod_off, dictionary.grid_aod)
        gain = complex(rng.normal(), rng.normal()) / math.sqrt(2.0)
        ray_delay = float(rng.uniform(0.0, 0.25 * SAMPLE_PERIOD))
        aspect = rng.uniform(0.0, 2.0 * np.pi)
        doppler = params.velocity / CARRIER_WAVELENGTH * math.cos(aspect)
        rays.append(
            Ray(gain=gain, aoa_offset=aoa_off, aod_offset=aod_off, delay=ray_delay, doppler=doppler)
        )
    return PathCluster(mean_aoa=mean_aoa, mean_aod=mean_aod, rays=tuple(rays))


def _evolve_cluster(cluster: PathCluster) -> PathCluster:
    rays = tuple(
        replace(ray, gain=ray.gain * np.exp(2j * np.pi * ray.doppler * SAMPLE_PERIOD))
        for ray in cluster.rays
    )
    return replace(cluster, rays=rays)


def evolve(
    real: ChannelRealization,
    steps: int,
    rng: np.random.Generator,
    rank_schedule=None,
    dictionary: AngularDictionary | None = None,
) -> list[ChannelRealization]:
    """Advance a realization ``steps`` times.

    Per step every ray gain rotates by exp(j*2*pi*doppler*Ts), and
    ``rank_schedule`` entries (time, n_clusters) add or remove clusters
    when their absolute time index is reached; ``rng`` draws the clusters
    that a schedule entry adds.

    Returns the ``steps`` new realizations, excluding the input.
    """
    if steps < 0:
        raise ConfigError("steps must be non-negative")
    schedule = {}
    if rank_schedule:
        for when, count in rank_schedule:
            if not real.time_index < when <= real.time_index + steps:
                raise ConfigError(
                    f"schedule time {when} outside horizon "
                    f"({real.time_index}, {real.time_index + steps}]"
                )
            if count < 1:
                raise ConfigError("scheduled cluster count must be positive")
            schedule[int(when)] = int(count)

    out = []
    current = real
    params = real.params
    for _ in range(steps):
        t = current.time_index + 1
        clusters = [_evolve_cluster(c) for c in current.clusters]
        if t in schedule:
            target = schedule[t]
            if target < len(clusters):
                clusters = clusters[:target]
            while len(clusters) > 0 and len(clusters) < target:
                occupied: set = set()
                if dictionary is not None:
                    for existing in clusters:
                        occupied |= _cluster_cells(existing, dictionary)
                clusters.append(_draw_cluster(params, rng, dictionary, occupied=occupied))
        current = ChannelRealization(
            params=params, clusters=tuple(clusters), time_index=t
        )
        out.append(current)
    return out
