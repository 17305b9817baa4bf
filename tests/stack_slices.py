"""Whole frame stacks for tests, and their slices in the blocks the streamed reducers take."""

import numpy as np

from sqzsim.homodyne import _Synthesis, block_bounds
from sqzsim.opa import constant_trajectory


def blocks(frames):
    """The rows of ``frames`` at :func:`sqzsim.homodyne.block_bounds`, in order."""
    return (frames[lo:hi] for lo, hi in block_bounds(len(frames)))


def synthesize(traj, det, lo, n_frames, seed):
    """All ``n_frames`` frames of one synthesis run, stacked, in one fill.

    Every frame's bytes are those a stream yields, whatever block holds it.
    """
    frames = np.empty((n_frames, traj.n_samples), dtype=np.float32)
    _Synthesis(traj, det, lo, seed).fill(frames, 0)
    return frames


def vacuum(det, n_samples, n_frames, seed):
    """Vacuum (pump off) frames through the same detector."""
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=det.dt, n_samples=n_samples)
    return synthesize(traj, det, 0.0, n_frames, seed)
