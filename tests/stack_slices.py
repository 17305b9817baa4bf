"""Slices of a whole frame stack in the blocks the streamed reducers take."""

from sqzsim.dsp import periodogram_bounds


def blocks(frames):
    """The rows of ``frames`` at :func:`sqzsim.dsp.periodogram_bounds`, in order."""
    return (frames[lo:hi] for lo, hi in periodogram_bounds(len(frames)))
