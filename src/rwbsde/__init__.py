"""Random-walk approximation of Markovian BSDEs on a recombining lattice,
with the Skorohod embedding that couples the walk to a Brownian path and a
Monte Carlo harness measuring empirical L2 convergence rates.

Importing the package or any of its modules loads numpy and scipy.special
only: the quadrature oracle of acceptance criterion 5 imports
scipy.integrate when it runs."""

__version__ = "0.1.0"
