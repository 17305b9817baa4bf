"""Whole frame stacks for tests, and their slices in the blocks the streamed reducers take."""

import numpy as np

from sqzsim.dsp import periodogram_bounds
from sqzsim.homodyne import iter_frame_chunks
from sqzsim.opa import constant_trajectory


def blocks(frames):
    """The rows of ``frames`` at :func:`sqzsim.dsp.periodogram_bounds`, in order."""
    return (frames[lo:hi] for lo, hi in periodogram_bounds(len(frames)))


def synthesize(traj, det, lo, n_frames, seed, dtype=np.float64):
    """All ``n_frames`` frames of one synthesis run, stacked."""
    bounds = [(k, min(k + 256, n_frames)) for k in range(0, n_frames, 256)]
    return np.concatenate(list(iter_frame_chunks(traj, det, lo, n_frames, seed, dtype, bounds)))


def vacuum(det, n_samples, n_frames, seed, dtype=np.float64):
    """Vacuum (pump off) frames through the same detector."""
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=det.dt, n_samples=n_samples)
    return synthesize(traj, det, 0.0, n_frames, seed, dtype)
