"""Gaussian-optics simulation of joint quadrature measurement.

Three schemes measure several non-commuting quadrature modulations of one
probe beam at once: splitting on a beam splitter, splitting through a
parametric amplifier, and an SU(1,1) interferometer whose recombining
amplifier at the dark fringe suppresses the readout noise below the
shot-noise level on every quadrature simultaneously.

The covariance engine (:mod:`suisim.gaussian`) and the operator-transfer
oracle (:mod:`suisim.bogoliubov`) are independent routes to the same
homodyne statistics and cross-validate each other; :mod:`suisim.schemes`
builds and analyses the schemes, :mod:`suisim.spectra` produces photocurrent
records and shot-noise-normalised spectra, and :mod:`suisim.cli` drives it all
from run configs.  The modules are the API: import each name from its module;
``import suisim`` loads none of them.
"""

__version__ = "0.1.0"
