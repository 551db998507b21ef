"""Random-walk approximation of Markovian BSDEs on a recombining lattice,
with the Skorohod embedding that couples the walk to a Brownian path and a
Monte Carlo harness measuring empirical L2 convergence rates."""

__version__ = "0.1.0"
