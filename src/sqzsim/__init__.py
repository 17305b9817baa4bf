"""sqzsim: digital model of a programmable pulsed squeezed-light source.

The package covers the full chain of such an experiment:

* :mod:`sqzsim.pump` compiles pulse-train specifications into modulator
  drive programs and models the drive-to-pump-power transfer,
* :mod:`sqzsim.opa` turns pump power into squeezing parameters,
* :mod:`sqzsim.homodyne` synthesizes homodyne measurement records,
* :mod:`sqzsim.dsp` estimates spectra, variance traces and temporal-mode
  quadratures from those records,
* :mod:`sqzsim.tomography` reconstructs Gaussian states and verifies
  two-mode entanglement,
* :mod:`sqzsim.scenarios` / :mod:`sqzsim.cli` bundle everything into
  reproducible end-to-end runs.

All simulations are deterministic for a given seed.
"""

__version__ = "0.1.0"
