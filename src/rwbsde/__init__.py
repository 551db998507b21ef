"""Random-walk approximation of Markovian BSDEs on a recombining lattice,
with the Skorohod embedding that couples the walk to a Brownian path and a
Monte Carlo harness measuring empirical L2 convergence rates.

Importing the package or any of its modules loads numpy only. The functions
that evaluate a special function (the exit-time series and quantile table,
the sqrt case's truth) import scipy.special when they run, and the
quadrature oracle of acceptance criterion 5 imports scipy.integrate."""

__version__ = "0.1.0"
