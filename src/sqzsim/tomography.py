"""Gaussian state estimation from phase-resolved quadrature samples.

The estimator assumes the measured state is Gaussian: sample groups
taken at LO phases phi_j have mean <x>cos(phi) + <p>sin(phi) and
variance C_xx cos^2(phi) + C_pp sin^2(phi) + 2 C_xp sin(phi)cos(phi).
A weighted least-squares fit of the per-group moments gives the
starting point and one Newton step on the exact Gaussian likelihood
polishes it.  Standard errors use the package-wide 10-way split.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy import signal

from sqzsim.dsp import (
    ModeScan,
    SplitMoments,
    TemporalMode,
    extract_quadratures,
    split_moments,
    stack_blocks,
)
from sqzsim.homodyne import VACUUM_REFERENCE, DetectorModel, FrameSet
from sqzsim.opa import SqueezerTrajectory
from sqzsim.quantum import (
    N_SPLITS,
    GaussianState,
    duan_from_moments,
    effective_squeezing_db,
    split_slices,
    variance_at_phase,
)

__all__ = [
    "PhaseGroup",
    "TomographyInput",
    "WignerEllipse",
    "wigner_ellipse",
    "TomographyResult",
    "ml_gaussian_tomography",
    "ellipse_angle_difference_deg",
    "EprResult",
    "run_epr_analysis",
    "stream_epr_analysis",
    "duan_prediction",
    "duan_prediction_scan",
]

MIN_GROUP_SAMPLES = 100

# contour where a Gaussian Wigner function has fallen to 1/sqrt(e) of
# its central value; this is the locus delta^T C^{-1} delta = 1
DEFAULT_CONTOUR_LEVEL = 1.0 / math.sqrt(math.e)


@dataclass(frozen=True)
class PhaseGroup:
    """Quadrature samples taken at one LO phase (radians)."""

    phase: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.phase):
            raise ValueError("phase must be finite")
        s = np.asarray(self.samples, dtype=float).ravel()
        if s.size < MIN_GROUP_SAMPLES:
            raise ValueError(f"each phase group needs >= {MIN_GROUP_SAMPLES} samples, got {s.size}")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples contain non-finite values")
        object.__setattr__(self, "samples", s)
        self.samples.setflags(write=False)


@dataclass(frozen=True)
class TomographyInput:
    """Phase-tagged sample groups covering enough of the phase circle.

    Requires at least 3 distinct phases (mod pi) whose folded span is
    at least 90 degrees; fewer leave the covariance fit ill
    conditioned.
    """

    groups: tuple[PhaseGroup, ...]

    def __post_init__(self) -> None:
        groups = tuple(self.groups)
        object.__setattr__(self, "groups", groups)
        folded = np.array([g.phase % math.pi for g in groups])
        distinct = np.unique(np.round(folded / 1e-9).astype(np.int64))
        if distinct.size < 3:
            raise ValueError("need samples at >= 3 distinct phases (mod pi)")
        span = float(folded.max() - folded.min())
        if span < math.pi / 2.0 - 1e-9:
            raise ValueError(
                f"phases span {math.degrees(span):.1f} degrees (mod pi); need >= 90 "
                "for a well-conditioned covariance fit"
            )

    @classmethod
    def from_arrays(cls, phases, samples) -> "TomographyInput":
        if len(phases) != len(samples):
            raise ValueError("phases and samples must pair up one-to-one")
        return cls(groups=tuple(PhaseGroup(float(p), s) for p, s in zip(phases, samples)))

    @classmethod
    def from_frameset(
        cls, fs: FrameSet, mode: TemporalMode, ref_scale: float
    ) -> "TomographyInput":
        """Group a frame set's mode quadratures by its LO phase tags."""
        q = extract_quadratures(fs, mode, ref_scale)
        groups = []
        for phase in dict.fromkeys(fs.phase_tags.tolist()):
            groups.append(PhaseGroup(phase=float(phase), samples=q[fs.phase_tags == phase]))
        return cls(groups=tuple(groups))


@dataclass(frozen=True)
class WignerEllipse:
    """Constant-level contour of a Gaussian Wigner function.

    ``semi_axes`` is (squeezed, anti-squeezed), i.e. sorted ascending;
    ``angle_deg`` is the orientation of the first (short) axis in
    (-90, 90], 0 for circular states.
    """

    center: tuple[float, float]
    semi_axes: tuple[float, float]
    angle_deg: float
    level: float = DEFAULT_CONTOUR_LEVEL

    def to_dict(self) -> dict:
        return {
            "center": list(self.center),
            "semi_axes": list(self.semi_axes),
            "angle_deg": self.angle_deg,
            "level": self.level,
        }


def ellipse_angle_difference_deg(a_deg: float, b_deg: float) -> float:
    """Signed difference a - b of ellipse orientations, folded to [-90, 90)."""
    return (a_deg - b_deg + 90.0) % 180.0 - 90.0


def wigner_ellipse(state: GaussianState, level: float = DEFAULT_CONTOUR_LEVEL) -> WignerEllipse:
    """Ellipse where the state's Wigner function equals ``level`` x peak.

    At the default level the contour is delta^T C^{-1} delta = 1 whose
    semi-axes are the square roots of the covariance eigenvalues; other
    levels rescale both axes by sqrt(-2 ln(level)).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    semi, angle = _axes_and_angle(state.cov)
    if semi[0] == 0.0:
        raise ValueError("covariance is not positive definite")
    scale = math.sqrt(-2.0 * math.log(level))
    return WignerEllipse(
        center=(float(state.mean[0]), float(state.mean[1])),
        semi_axes=(scale * semi[0], scale * semi[1]),
        angle_deg=angle,
        level=level,
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


def _group_stats(groups) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    phases = np.array([g.phase for g in groups])
    counts = np.array([g.samples.size for g in groups], dtype=float)
    means = np.array([float(np.mean(g.samples)) for g in groups])
    variances = np.array([float(np.var(g.samples)) for g in groups])
    return phases, counts, means, variances


def _fit_moments(phases, counts, means, variances) -> np.ndarray:
    """(mu_x, mu_p, C_xx, C_pp, C_xp) maximizing the Gaussian likelihood."""
    c, s = np.cos(phases), np.sin(phases)
    w = np.sqrt(counts)

    design_m = np.column_stack([c, s])
    mean_fit, *_ = np.linalg.lstsq(design_m * w[:, None], means * w, rcond=None)
    mu = design_m @ mean_fit

    design_v = np.column_stack([c * c, s * s, 2.0 * s * c])
    target = variances + (means - mu) ** 2
    cov_fit, *_ = np.linalg.lstsq(design_v * w[:, None], target * w, rcond=None)

    theta = np.concatenate([mean_fit, cov_fit])

    def nll(t: np.ndarray) -> float:
        mu_j = c * t[0] + s * t[1]
        v_j = design_v @ t[2:]
        if np.any(v_j <= 0.0):
            return math.inf
        return float(
            np.sum(counts * (0.5 * np.log(v_j) + (variances + (means - mu_j) ** 2) / (2.0 * v_j)))
        )

    return _newton_step(theta, nll)


def _newton_step(theta: np.ndarray, nll) -> np.ndarray:
    """One guarded Newton improvement of a negative log-likelihood."""
    f0 = nll(theta)
    if not np.isfinite(f0):
        return theta
    n = theta.size
    h = 1e-6 * np.maximum(1.0, np.abs(theta))
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    basis = np.diag(h)
    for i in range(n):
        fp, fm = nll(theta + basis[i]), nll(theta - basis[i])
        if not (np.isfinite(fp) and np.isfinite(fm)):
            return theta
        grad[i] = (fp - fm) / (2.0 * h[i])
        hess[i, i] = (fp - 2.0 * f0 + fm) / (h[i] * h[i])
    for i in range(n):
        for j in range(i + 1, n):
            fpp = nll(theta + basis[i] + basis[j])
            fpm = nll(theta + basis[i] - basis[j])
            fmp = nll(theta - basis[i] + basis[j])
            fmm = nll(theta - basis[i] - basis[j])
            if not all(map(math.isfinite, (fpp, fpm, fmp, fmm))):
                return theta
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    try:
        step = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return theta
    scale = 1.0
    while scale > 1e-4:
        candidate = theta + scale * step
        if nll(candidate) < f0:
            return candidate
        scale /= 2.0
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
    data : TomographyInput, or sequence of (phase, samples) pairs
    project : bool
        When True, a fitted covariance below the det = 1 uncertainty
        bound is rescaled onto the boundary.  Off by default so that
        statistical undershoot stays visible (flagged via
        ``state.physical``).
    """
    if not isinstance(data, TomographyInput):
        data = TomographyInput.from_arrays([p for p, _ in data], [s for _, s in data])
    phases, counts, means, variances = _group_stats(data.groups)

    theta = _fit_moments(phases, counts, means, variances)
    state, projected = _theta_to_state(theta, project)
    try:
        ellipse = wigner_ellipse(state)
    except ValueError:  # the covariance is not positive definite
        ellipse = None

    # rerun the whole fit on 10 contiguous sample splits for the errors
    split_means = np.full((N_SPLITS, 2), np.nan)
    split_covs = np.full((N_SPLITS, 2, 2), np.nan)
    split_semi = np.full((N_SPLITS, 2), np.nan)
    split_angle = np.full(N_SPLITS, np.nan)
    per_group_splits = [[g.samples[sl] for sl in split_slices(g.samples.size)] for g in data.groups]
    for k in range(N_SPLITS):
        sub_means = np.array([float(np.mean(parts[k])) for parts in per_group_splits])
        sub_vars = np.array([float(np.var(parts[k])) for parts in per_group_splits])
        sub_counts = np.array([parts[k].size for parts in per_group_splits], dtype=float)
        sub_theta = _fit_moments(phases, sub_counts, sub_means, sub_vars)
        sub_state, _ = _theta_to_state(sub_theta, project)
        split_means[k] = sub_state.mean
        split_covs[k] = sub_state.cov
        split_semi[k], split_angle[k] = _axes_and_angle(sub_state.cov)

    mean_stderr = split_means.std(axis=0, ddof=1) / math.sqrt(N_SPLITS)
    cov_stderr = split_covs.std(axis=0, ddof=1) / math.sqrt(N_SPLITS)
    if ellipse is not None:
        semi_stderr = tuple(split_semi.std(axis=0, ddof=1) / math.sqrt(N_SPLITS))
        # angles live on a 180-degree circle: spread is measured on the
        # folded deviations from the point estimate
        dev = np.array([ellipse_angle_difference_deg(a, ellipse.angle_deg) for a in split_angle])
        angle_stderr = float(dev.std(ddof=1) / math.sqrt(N_SPLITS))
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
    """Duan inseparability test result for a two-mode extraction."""

    duan: float
    duan_stderr: float
    effective_db: float
    t_c: float
    entangled: bool
    scan_offsets: np.ndarray
    scan_duan: np.ndarray


def _check_epr_phases(fs: FrameSet, want: float, label: str) -> None:
    dev = np.abs((fs.phase_tags - want + math.pi) % (2.0 * math.pi) - math.pi)
    if np.any(dev > 1e-6):
        raise ValueError(f"{label} frame set must be taken at LO phase {want:g} rad")


def run_epr_analysis(
    fs_x: FrameSet,
    fs_p: FrameSet,
    g1: TemporalMode,
    g2: TemporalMode,
    ref: FrameSet,
    scan_halfwidth: float = 60e-9,
    scan_step: float | None = None,
) -> EprResult:
    """Duan test of the two extraction modes, optimized over their center.

    Per frame, x quadratures of both modes come from ``fs_x`` (LO phase
    0) and p quadratures from ``fs_p`` (LO phase pi/2).  Both modes are
    slid together over [-scan_halfwidth, +scan_halfwidth] around their
    nominal centers and the reported result is taken at the center
    minimizing the Duan value.  ``ref`` supplies the vacuum
    normalization; the frames must be unfiltered (detector output as
    simulated) for the mode weighting to be meaningful.  The three sets
    share one time grid, and the x and p sets one frame count.  This is
    the frame-stack case of :func:`stream_epr_analysis`.
    """
    _check_epr_phases(fs_x, 0.0, "x-quadrature")
    _check_epr_phases(fs_p, math.pi / 2.0, "p-quadrature")
    if ref.kind != VACUUM_REFERENCE:
        raise ValueError("reference frame set must have kind 'vacuum_reference'")
    for fs in (fs_p, ref):
        if (
            abs(fs.dt - fs_x.dt) > 1e-12 * fs_x.dt
            or abs(fs.t0 - fs_x.t0) > 1e-6 * fs_x.dt
            or fs.n_samples != fs_x.n_samples
        ):
            raise ValueError("x, p and reference frame sets must share one time grid")
    if fs_p.n_frames != fs_x.n_frames:
        raise ValueError("x and p frame sets must hold equal frame counts")

    x_blocks, p_blocks, vac_blocks = (stack_blocks(fs.frames) for fs in (fs_x, fs_p, ref))
    return stream_epr_analysis(
        x_blocks, p_blocks, vac_blocks, fs_x.n_frames, ref.n_frames, g1, g2,
        fs_x.t0, fs_x.dt, fs_x.n_samples, scan_halfwidth, scan_step,
    )


def stream_epr_analysis(
    x_blocks: Iterable[np.ndarray],
    p_blocks: Iterable[np.ndarray],
    vac_blocks: Iterable[np.ndarray],
    n_frames: int,
    n_vac: int,
    g1: TemporalMode,
    g2: TemporalMode,
    t0: float,
    dt: float,
    n_samples: int,
    scan_halfwidth: float = 60e-9,
    scan_step: float | None = None,
) -> EprResult:
    """:func:`run_epr_analysis` over frame blocks, one block held at a time.

    ``x_blocks`` and ``p_blocks`` yield the ``n_frames`` frames of the x
    and p sets and ``vac_blocks`` the ``n_vac`` frames of the vacuum
    reference, each in the ranges of :func:`sqzsim.dsp.periodogram_bounds`.
    Every record holds ``n_samples`` samples at interval ``dt`` from
    ``t0``.  The vacuum set is reduced first, to the shot-noise scales
    s1, s2 of g1, g2.  Each x block becomes the scan columns of
    g1/s1 - g2/s2 and each p block those of g1/s1 + g2/s2 (a
    :class:`sqzsim.dsp.ModeScan` per set), and
    :func:`sqzsim.dsp.split_moments` folds them into
    :func:`sqzsim.quantum.duan_from_moments`.  The LO phases of the
    blocks are the caller's to guarantee.
    """
    if scan_halfwidth < 0.0:
        raise ValueError("scan_halfwidth must be >= 0")
    step_samples = 1 if scan_step is None else max(1, int(round(scan_step / dt)))
    half_samples = int(math.floor(scan_halfwidth / dt + 1e-9))
    offsets = np.arange(-half_samples, half_samples + 1, step_samples)

    for mode in (g1, g2):
        for edge in (-half_samples, half_samples):
            start = (mode.shifted(edge * dt).t0 - t0) / dt
            if start < -1e-6 or start + mode.n_samples > n_samples + 1e-6:
                raise ValueError(
                    "t_c search window pushes the modes outside the record; "
                    "shorten the window or lengthen the frames"
                )

    def moments(n: int, blocks, coeffs, lags) -> SplitMoments:
        scan = ModeScan([g1, g2], coeffs, lags, t0, dt, n_samples)
        return split_moments(n, map(scan, blocks))

    s1, s2 = np.sqrt(moments(n_vac, vac_blocks, np.eye(2), [0]).variance())
    x = moments(n_frames, x_blocks, [[1.0 / s1, -1.0 / s2]], offsets)
    p = moments(n_frames, p_blocks, [[1.0 / s1, 1.0 / s2]], offsets)
    scan = duan_from_moments(x, p)

    best = int(np.argmin(scan.value))
    duan = float(scan.value[best])
    t_c = float(g1.params.get("t_c", g1.t0) + offsets[best] * dt)
    # Both scales carry chi-squared noise from the finite vacuum set and
    # enter every variance multiplicatively, so their relative errors
    # (1 / sqrt(2 (n_vac - 1)) each, independent for orthogonal modes)
    # add a duan / sqrt(n_vac - 1) term the split scatter cannot see.
    stderr = math.hypot(float(scan.stderr[best]), duan / math.sqrt(n_vac - 1))
    return EprResult(
        duan=duan,
        duan_stderr=stderr,
        effective_db=effective_squeezing_db(duan),
        t_c=t_c,
        entangled=bool(scan.entangled[best]),
        scan_offsets=offsets * dt,
        scan_duan=scan.value,
    )


def _mode_on_grid(mode: TemporalMode, t0: float, dt: float, n: int, n_lead: int) -> np.ndarray:
    start = (mode.t0 - t0) / dt
    idx = round(start)
    if abs(start - idx) > 1e-6 or idx < 0 or idx + mode.n_samples > n:
        raise ValueError("mode does not sit on the trajectory grid")
    w = np.zeros(n_lead + n)
    w[n_lead + idx : n_lead + idx + mode.n_samples] = mode.weights
    return w


def duan_prediction(
    traj: SqueezerTrajectory,
    det: DetectorModel,
    g1: TemporalMode,
    g2: TemporalMode,
) -> float:
    """Deterministic counterpart of :func:`run_epr_analysis` at fixed t_c.

    Evaluates the exact variance of the mode-weighted quadratures for
    the quasi-static record model, detector filtering included, with no
    Monte-Carlo noise.  For an ideal detector this reduces to the
    variance integrals 2 * sum(f1^2 V_x) dt + 2 * sum(f2^2 V_p) dt with
    V_x, V_p the instantaneous trajectory variances.  This is the
    one-offset case of :func:`duan_prediction_scan`.
    """
    return float(duan_prediction_scan(traj, det, g1, g2, [0.0])[0])


def duan_prediction_scan(
    traj: SqueezerTrajectory,
    det: DetectorModel,
    g1: TemporalMode,
    g2: TemporalMode,
    offsets,
) -> np.ndarray:
    """:func:`duan_prediction` with both modes shifted by each offset (s).

    The detector filters are designed once and run backwards over the
    whole (n_offsets, n) stack of mode weights.
    """
    if abs(traj.dt - det.dt) > 1e-12 * det.dt:
        raise ValueError("trajectory must live on the detector grid")
    n = traj.n_samples
    variances = [
        np.atleast_1d(variance_at_phase(traj.r, traj.theta, traj.loss, phi))
        for phi in (0.0, math.pi / 2.0)
    ]
    # the simulator's burn-in, so the filters see the record it synthesizes
    v_x, v_p = det.burn_in(np.stack(variances))
    n_lead = v_x.size - n
    filters = det.filters()

    w1 = np.stack([_mode_on_grid(g1.shifted(off), traj.t0, traj.dt, n, n_lead) for off in offsets])
    w2 = np.stack([_mode_on_grid(g2.shifted(off), traj.t0, traj.dt, n, n_lead) for off in offsets])

    if filters is None:
        def components(w):  # (lp-weighted, hp-weighted)
            return w, np.zeros_like(w)
    else:
        b_lp, a_lp, b_hp, a_hp = filters

        def components(w):
            # W(k) = sum_j w_j h_{j-k}: run the causal filter backwards
            return (
                signal.lfilter(b_lp, a_lp, w[:, ::-1], axis=1)[:, ::-1],
                signal.lfilter(b_hp, a_hp, w[:, ::-1], axis=1)[:, ::-1],
            )

    def weighted_variance(w, v) -> np.ndarray:
        lp, hp = components(w)
        return np.sum(v * lp * lp, axis=1) + np.sum(hp * hp, axis=1)

    scale1 = np.sqrt(weighted_variance(w1, np.ones_like(v_x)))[:, None]
    scale2 = np.sqrt(weighted_variance(w2, np.ones_like(v_x)))[:, None]
    u_minus = w1 / scale1 - w2 / scale2
    u_plus = w1 / scale1 + w2 / scale2
    return weighted_variance(u_minus, v_x) + weighted_variance(u_plus, v_p)
