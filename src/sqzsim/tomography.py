"""Gaussian state estimation from phase-resolved quadrature samples.

The estimator assumes the measured state is Gaussian: sample groups
taken at LO phases phi_j have mean <x>cos(phi) + <p>sin(phi) and
variance C_xx cos^2(phi) + C_pp sin^2(phi) + 2 C_xp sin(phi)cos(phi).
Each group enters as the split moments of its samples
(:func:`sqzsim.dsp.split_moments`), so a caller streams its frames into
the fit and never holds them.  A weighted least-squares fit of the
group moments gives the starting point, and Newton's method on the
analytic gradient and Hessian of the exact Gaussian likelihood
(Lvovsky & Raymer, Rev. Mod. Phys. 81, 299 (2009)) runs from there to
convergence.  Standard errors use the package-wide 10-way split: the
fit is repeated on the moments of each split.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from sqzsim.dsp import ModeScan, SplitMoments, TemporalMode, split_moments
from sqzsim.homodyne import DetectorModel, _BlockFilter, _tile_rows
from sqzsim.opa import SqueezerTrajectory
from sqzsim.quantum import (
    N_SPLITS,
    GaussianState,
    duan_from_moments,
    effective_squeezing_db,
    split_stderr,
)

__all__ = [
    "TomographyInput",
    "WignerEllipse",
    "wigner_ellipse",
    "TomographyResult",
    "ml_gaussian_tomography",
    "ellipse_angle_difference_deg",
    "EprResult",
    "epr_scan_lags",
    "stream_epr_analysis",
    "duan_prediction_scan",
]

MIN_GROUP_SAMPLES = 100

# contour where a Gaussian Wigner function has fallen to 1/sqrt(e) of
# its central value; this is the locus delta^T C^{-1} delta = 1
DEFAULT_CONTOUR_LEVEL = 1.0 / math.sqrt(math.e)


@dataclass(frozen=True)
class TomographyInput:
    """Quadrature moments at LO phases covering enough of the phase circle.

    ``moments[j]`` holds the :func:`sqzsim.dsp.split_moments` of the
    samples taken at LO phase ``phases[j]`` (radians), with one column,
    so a caller can stream its samples into it.  Requires at least
    ``MIN_GROUP_SAMPLES`` finite samples per phase, and at least 3
    distinct phases (mod pi) whose folded span is at least 90 degrees;
    fewer leave the covariance fit ill conditioned.
    """

    phases: tuple[float, ...]
    moments: tuple[SplitMoments, ...]

    def __post_init__(self) -> None:
        phases = tuple(float(p) for p in self.phases)
        moments = tuple(self.moments)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "moments", moments)
        if len(phases) != len(moments):
            raise ValueError("phases and moments must pair up one-to-one")
        if not all(map(math.isfinite, phases)):
            raise ValueError("phases must be finite")
        for m in moments:
            if m.mean.shape != (N_SPLITS, 1):
                raise ValueError("each phase needs the split moments of one quadrature")
            n = int(m.count.sum())
            if n < MIN_GROUP_SAMPLES:
                raise ValueError(f"each phase group needs >= {MIN_GROUP_SAMPLES} samples, got {n}")
            if not (np.all(np.isfinite(m.mean)) and np.all(np.isfinite(m.m2))):
                raise ValueError("samples contain non-finite values")
        folded = np.array(phases) % math.pi
        distinct = set(np.round(folded / 1e-9).astype(np.int64).tolist())
        if len(distinct) < 3:
            raise ValueError("need samples at >= 3 distinct phases (mod pi)")
        span = float(folded.max() - folded.min())
        if span < math.pi / 2.0 - 1e-9:
            raise ValueError(
                f"phases span {math.degrees(span):.1f} degrees (mod pi); need >= 90 "
                "for a well-conditioned covariance fit"
            )


@dataclass(frozen=True)
class WignerEllipse:
    """The contour of a Gaussian Wigner function at ``DEFAULT_CONTOUR_LEVEL`` x peak.

    ``semi_axes`` is (squeezed, anti-squeezed), i.e. sorted ascending;
    ``angle_deg`` is the orientation of the first (short) axis in
    (-90, 90], 0 for circular states.
    """

    center: tuple[float, float]
    semi_axes: tuple[float, float]
    angle_deg: float

    def to_dict(self) -> dict:
        return {
            "center": list(self.center),
            "semi_axes": list(self.semi_axes),
            "angle_deg": self.angle_deg,
            "level": DEFAULT_CONTOUR_LEVEL,
        }


def ellipse_angle_difference_deg(a_deg: float, b_deg: float) -> float:
    """Signed difference a - b of ellipse orientations, folded to [-90, 90)."""
    return (a_deg - b_deg + 90.0) % 180.0 - 90.0


def wigner_ellipse(state: GaussianState) -> WignerEllipse:
    """Ellipse where the state's Wigner function equals ``DEFAULT_CONTOUR_LEVEL`` x peak.

    That contour is delta^T C^{-1} delta = 1, whose semi-axes are the
    square roots of the covariance eigenvalues.
    """
    semi, angle = _axes_and_angle(state.cov)
    if semi[0] == 0.0:
        raise ValueError("covariance is not positive definite")
    return WignerEllipse(
        center=(float(state.mean[0]), float(state.mean[1])),
        semi_axes=semi,
        angle_deg=angle,
    )


def _axes_and_angle(cov: np.ndarray) -> tuple[tuple[float, float], float]:
    """Square roots of the covariance eigenvalues, and the short axis's angle.

    This is the package's one ellipse geometry.  An eigenvalue <= 0
    gives a zero axis; the angle lies in (-90, 90], 0 for a circle.
    """
    evals, evecs = np.linalg.eigh(cov)
    semi = (math.sqrt(max(evals[0], 0.0)), math.sqrt(max(evals[1], 0.0)))
    if evals[1] - evals[0] <= 1e-12 * max(evals[1], 1.0):
        return semi, 0.0
    angle = (math.degrees(math.atan2(evecs[1, 0], evecs[0, 0])) + 90.0) % 180.0 - 90.0
    return semi, 90.0 if angle == -90.0 else angle


class _GroupedLikelihood:
    """Negative log-likelihood of Gaussian sample groups, with its derivatives.

    Group j holds ``counts[j]`` samples at LO phase ``phases[j]`` with
    sample mean m_j and variance S_j (ddof=0).  In the parameters
    theta = (mu_x, mu_p, C_xx, C_pp, C_xp) the group has mean
    mu_j = b_j . (mu_x, mu_p), b_j = (cos, sin), and variance
    v_j = a_j . (C_xx, C_pp, C_xp), a_j = (cos^2, sin^2, 2 sin cos), so

        nll = sum_j n_j [log(v_j) / 2 + (S_j + (m_j - mu_j)^2) / (2 v_j)]

    up to a constant, and both derivatives are sums of outer products
    of b_j and a_j.
    """

    def __init__(self, phases, counts, means, variances) -> None:
        c, s = np.cos(phases), np.sin(phases)
        self.b = np.column_stack([c, s])
        self.a = np.column_stack([c * c, s * s, 2.0 * s * c])
        self.counts = np.asarray(counts, dtype=float)
        self.means = np.asarray(means, dtype=float)
        self.variances = np.asarray(variances, dtype=float)

    def _terms(self, theta: np.ndarray):
        resid = self.means - self.b @ theta[:2]
        return resid, self.a @ theta[2:], self.variances + resid * resid

    def nll(self, theta: np.ndarray) -> float:
        _, v, q = self._terms(theta)
        if np.any(v <= 0.0):
            return math.inf
        return float(np.sum(self.counts * (0.5 * np.log(v) + q / (2.0 * v))))

    def gradient_hessian(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        resid, v, q = self._terms(theta)
        n = self.counts
        grad = np.concatenate([
            -self.b.T @ (n * resid / v),
            self.a.T @ (n * (0.5 / v - 0.5 * q / (v * v))),
        ])
        h_mm = (self.b.T * (n / v)) @ self.b
        h_mc = (self.b.T * (n * resid / (v * v))) @ self.a
        h_cc = (self.a.T * (n * (q / v - 0.5) / (v * v))) @ self.a
        return grad, np.block([[h_mm, h_mc], [h_mc.T, h_cc]])

    def start(self) -> np.ndarray:
        """Weighted least-squares fits of the group means, then of the second moments."""
        w = np.sqrt(self.counts)
        mean_fit, *_ = np.linalg.lstsq(self.b * w[:, None], self.means * w, rcond=None)
        target = self.variances + (self.means - self.b @ mean_fit) ** 2
        cov_fit, *_ = np.linalg.lstsq(self.a * w[:, None], target * w, rcond=None)
        return np.concatenate([mean_fit, cov_fit])


# Newton steps are taken whole once the Newton decrement -grad.step (the
# predicted nll drop, doubled) is below _WHOLE_STEP: nll is a sum of
# order n_samples, so its rounding hides the drop of a step near the
# optimum and a decrease test would stall there.  The fit ends after a
# whole step of decrement below _CONVERGED, which leaves the parameters
# at the optimum to rounding.
_WHOLE_STEP = 1e-6
_CONVERGED = 1e-16
_MAX_NEWTON = 50


def _fit_moments(phases, counts, means, variances) -> np.ndarray:
    """(mu_x, mu_p, C_xx, C_pp, C_xp) maximizing the Gaussian likelihood.

    Newton's method from the least-squares start, on the analytic
    gradient and Hessian, halving a step until nll decreases while the
    decrement is large and taking it whole below ``_WHOLE_STEP``.  An
    indefinite Hessian or a step that never decreases nll ends the fit
    at the current point.
    """
    lik = _GroupedLikelihood(phases, counts, means, variances)
    theta = lik.start()
    for _ in range(_MAX_NEWTON):
        grad, hess = lik.gradient_hessian(theta)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        decrement = float(-grad @ step)
        if not decrement > 0.0:
            break
        if decrement < _WHOLE_STEP:
            theta = theta + step
            if decrement < _CONVERGED:
                break
            continue
        f0 = lik.nll(theta)
        scale = 1.0
        while scale > 1e-4 and not lik.nll(theta + scale * step) < f0:
            scale /= 2.0
        if scale <= 1e-4:
            break
        theta = theta + scale * step
    return theta


def _theta_to_state(theta: np.ndarray, project: bool) -> tuple[GaussianState, bool]:
    mean = theta[:2].copy()
    cov = np.array([[theta[2], theta[4]], [theta[4], theta[3]]])
    projected = False
    if project:
        det = float(np.linalg.det(cov))
        if 0.0 < det < 1.0:
            # uniform rescale onto the det = 1 uncertainty boundary
            cov = cov / math.sqrt(det)
            projected = True
    return GaussianState(mean=mean, cov=cov), projected


@dataclass(frozen=True)
class TomographyResult:
    """Fitted Gaussian state with geometry and 10-way-split errors.

    ``ellipse`` is None when the fitted covariance is not positive
    definite (the state itself then carries physical=False).
    ``projected`` records whether the covariance was rescaled onto the
    det = 1 boundary.
    """

    state: GaussianState
    ellipse: WignerEllipse | None
    mean_stderr: np.ndarray
    cov_stderr: np.ndarray
    semi_axes_stderr: tuple[float, float] | None
    angle_stderr_deg: float | None
    n_samples: tuple[int, ...]
    phases: tuple[float, ...]
    projected: bool = False

    def to_dict(self) -> dict:
        return {
            "mean": self.state.mean.tolist(),
            "cov": self.state.cov.tolist(),
            "ellipse": self.ellipse.to_dict() if self.ellipse is not None else None,
            "stderr": {
                "mean": self.mean_stderr.tolist(),
                "cov": self.cov_stderr.tolist(),
                "semi_axes": list(self.semi_axes_stderr)
                if self.semi_axes_stderr is not None
                else None,
                "angle_deg": self.angle_stderr_deg,
            },
            "n_samples": list(self.n_samples),
            "phases": list(self.phases),
            "physical": self.state.physical,
            "projected": self.projected,
        }


def ml_gaussian_tomography(data, project: bool = False) -> TomographyResult:
    """Maximum-likelihood Gaussian state fit from phase-tagged samples.

    Parameters
    ----------
    data : TomographyInput
        The split moments of the samples at each LO phase.
    project : bool
        When True, a fitted covariance below the det = 1 uncertainty
        bound is rescaled onto the boundary.  Off by default so that
        statistical undershoot stays visible (flagged via
        ``state.physical``).
    """
    phases = np.array(data.phases)
    totals = [m.merged() for m in data.moments]
    counts = np.array([n for n, _, _ in totals])
    means = np.array([mean[0] for _, mean, _ in totals])
    variances = np.array([m2[0] / n for n, _, m2 in totals])

    theta = _fit_moments(phases, counts, means, variances)
    state, projected = _theta_to_state(theta, project)
    try:
        ellipse = wigner_ellipse(state)
    except ValueError:  # the covariance is not positive definite
        ellipse = None

    # rerun the whole fit on the 10 contiguous sample splits for the errors
    split_counts = np.stack([m.count for m in data.moments])
    split_m1 = np.stack([m.mean[:, 0] for m in data.moments])
    split_m2 = np.stack([m.m2[:, 0] for m in data.moments])
    split_means = np.full((N_SPLITS, 2), np.nan)
    split_covs = np.full((N_SPLITS, 2, 2), np.nan)
    split_semi = np.full((N_SPLITS, 2), np.nan)
    split_angle = np.full(N_SPLITS, np.nan)
    for k in range(N_SPLITS):
        n_k = split_counts[:, k]
        sub_theta = _fit_moments(phases, n_k, split_m1[:, k], split_m2[:, k] / n_k)
        sub_state, _ = _theta_to_state(sub_theta, project)
        split_means[k] = sub_state.mean
        split_covs[k] = sub_state.cov
        split_semi[k], split_angle[k] = _axes_and_angle(sub_state.cov)

    mean_stderr = split_stderr(split_means)
    cov_stderr = split_stderr(split_covs)
    if ellipse is not None:
        semi_stderr = tuple(split_stderr(split_semi))
        # angles live on a 180-degree circle: spread is measured on the
        # folded deviations from the point estimate
        dev = np.array([ellipse_angle_difference_deg(a, ellipse.angle_deg) for a in split_angle])
        angle_stderr = float(split_stderr(dev))
    else:
        semi_stderr = None
        angle_stderr = None

    return TomographyResult(
        state=state,
        ellipse=ellipse,
        mean_stderr=mean_stderr,
        cov_stderr=cov_stderr,
        semi_axes_stderr=semi_stderr,
        angle_stderr_deg=angle_stderr,
        n_samples=tuple(int(c) for c in counts),
        phases=tuple(float(p) for p in phases),
        projected=projected,
    )


@dataclass(frozen=True)
class EprResult:
    """Duan inseparability test result for a two-mode extraction.

    ``offset`` (s) is the best scan offset from the modes' nominal center.
    """

    duan: float
    duan_stderr: float
    effective_db: float
    offset: float
    entangled: bool
    scan_offsets: np.ndarray
    scan_duan: np.ndarray


def epr_scan_lags(
    g1: TemporalMode,
    g2: TemporalMode,
    dt: float,
    n_samples: int,
    scan_halfwidth: float,
) -> np.ndarray:
    """The sample lags of a gate scan for :func:`stream_epr_analysis`.

    One lag per sample in [-scan_halfwidth, +scan_halfwidth].  Raises
    ``ValueError`` when the window is negative or when
    :meth:`sqzsim.dsp.TemporalMode.indices` cannot place a mode at either end.
    """
    if scan_halfwidth < 0.0:
        raise ValueError("scan_halfwidth must be >= 0")
    half_samples = int(math.floor(scan_halfwidth / dt + 1e-9))
    for mode in (g1, g2):
        for edge in (-half_samples, half_samples):
            mode.shifted(edge * dt).indices(dt, n_samples)
    return np.arange(-half_samples, half_samples + 1)


def stream_epr_analysis(
    x_blocks: Iterable[np.ndarray],
    p_blocks: Iterable[np.ndarray],
    vac_blocks: Iterable[np.ndarray],
    n_frames: int,
    g1: TemporalMode,
    g2: TemporalMode,
    dt: float,
    n_samples: int,
    lags,
) -> EprResult:
    """Duan test of the two extraction modes, optimized over their center.

    ``x_blocks`` yields the ``n_frames`` frames of the x set (LO phase
    0), ``p_blocks`` those of the p set (LO phase pi/2) and
    ``vac_blocks`` the ``n_frames`` frames of the vacuum reference, each in
    the ranges of :func:`sqzsim.homodyne.block_bounds`, so only one
    block is held at a time.  Every record holds ``n_samples`` samples
    at interval ``dt`` from t = 0, the grid of :mod:`sqzsim.homodyne`,
    and is the detector output as simulated, with no further filtering,
    for the mode weighting to be meaningful.  The LO phases of the
    blocks are the caller's to guarantee.

    The vacuum set is reduced first, to the shot-noise scales s1, s2 of
    g1, g2.  Both modes are slid together over the sample ``lags``
    around their nominal centers, as :func:`epr_scan_lags` gives them:
    each x block becomes the scan columns of g1/s1 - g2/s2 and each p
    block those of g1/s1 + g2/s2 (a :class:`sqzsim.dsp.ModeScan` per
    set), and :func:`sqzsim.dsp.split_moments` folds them into
    :func:`sqzsim.quantum.duan_from_moments`.  The result is taken at
    the lag that minimizes the Duan value.
    """
    offsets = np.asarray(lags)

    def moments(n: int, blocks, coeffs, lags) -> SplitMoments:
        scan = ModeScan([g1, g2], coeffs, lags, dt, n_samples)
        return split_moments(n, map(scan, blocks))

    s1, s2 = np.sqrt(moments(n_frames, vac_blocks, np.eye(2), [0]).variance())
    x = moments(n_frames, x_blocks, [[1.0 / s1, -1.0 / s2]], offsets)
    p = moments(n_frames, p_blocks, [[1.0 / s1, 1.0 / s2]], offsets)
    scan = duan_from_moments(x, p)

    best = int(np.argmin(scan.value))
    duan = float(scan.value[best])
    # Both scales carry chi-squared noise from the finite vacuum set and
    # enter every variance multiplicatively, so their relative errors
    # (1 / sqrt(2 (n_frames - 1)) each, independent for orthogonal modes)
    # add a duan / sqrt(n_frames - 1) term the split scatter cannot see.
    stderr = math.hypot(float(scan.stderr[best]), duan / math.sqrt(n_frames - 1))
    return EprResult(
        duan=duan,
        duan_stderr=stderr,
        effective_db=effective_squeezing_db(duan),
        offset=float(offsets[best] * dt),
        entangled=bool(scan.entangled[best]),
        scan_offsets=offsets * dt,
        scan_duan=scan.value,
    )


def _mode_on_grid(mode: TemporalMode, dt: float, n: int, n_lead: int) -> np.ndarray:
    """The mode's weights on an ``n``-sample record preceded by ``n_lead`` burn-in samples."""
    w = np.zeros(n_lead + n)
    w[n_lead:][mode.indices(dt, n)] = mode.weights
    return w


def duan_prediction_scan(
    traj: SqueezerTrajectory,
    det: DetectorModel,
    g1: TemporalMode,
    g2: TemporalMode,
    offsets,
) -> np.ndarray:
    """Deterministic counterpart of :func:`stream_epr_analysis` at each t_c offset (s).

    Both modes are shifted by each offset.  Evaluates the exact variance
    of the mode-weighted quadratures for the quasi-static record model,
    detector filtering included, with no Monte-Carlo noise.  For an ideal
    detector this reduces to the variance integrals
    2 * sum(f1^2 V_x) dt + 2 * sum(f2^2 V_p) dt with V_x, V_p the
    instantaneous trajectory variances.

    The detector filters are designed once and run backwards over the
    mode weights of a tile of offsets at a time, ``_tile_rows`` rows of
    burn-in + samples each, into one result.  Every step treats each
    offset's row on its own, so the tile does not change the bits, and
    the scan holds a few tiles of weights however many offsets it has.
    """
    # the record the simulator synthesizes, so the filters see its burn-in
    v_x, v_p = (det.record_variance(traj, phi) for phi in (0.0, math.pi / 2.0))
    n = traj.n_samples
    n_lead = v_x.size - n
    filters = det.filters()

    if filters is None:
        def weighted_variance(w, v) -> np.ndarray:
            return np.sum(v * w * w, axis=1)
    else:
        b_lp, b_hp, a = filters
        lowpass = _BlockFilter([b_lp], a, n_lead + n)
        highpass = _BlockFilter([b_hp], a, n_lead + n)

        def weighted_variance(w, v) -> np.ndarray:
            # W(k) = sum_j w_j h_{j-k}: run the causal filter backwards, the
            # low-pass part summed and dropped before the high-pass one is made
            lp = lowpass(w[:, ::-1])[:, ::-1]
            total = np.sum(v * lp * lp, axis=1)
            del lp
            hp = highpass(w[:, ::-1])[:, ::-1]
            return total + np.sum(hp * hp, axis=1)

    def tile_scan(part) -> np.ndarray:
        w1 = np.stack([_mode_on_grid(g1.shifted(off), det.dt, n, n_lead) for off in part])
        w2 = np.stack([_mode_on_grid(g2.shifted(off), det.dt, n, n_lead) for off in part])
        scale1 = np.sqrt(weighted_variance(w1, np.ones_like(v_x)))[:, None]
        scale2 = np.sqrt(weighted_variance(w2, np.ones_like(v_x)))[:, None]
        u_minus = w1 / scale1 - w2 / scale2
        u_plus = w1 / scale1 + w2 / scale2
        del w1, w2
        return weighted_variance(u_minus, v_x) + weighted_variance(u_plus, v_p)

    scan = np.empty(len(offsets))
    tile = _tile_rows(n_lead + n)
    for lo in range(0, scan.size, tile):
        scan[lo : lo + tile] = tile_scan(offsets[lo : lo + tile])
    return scan
