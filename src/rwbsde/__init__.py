"""Random-walk approximation of Markovian BSDEs on a recombining lattice,
with the Skorohod embedding that couples the walk to a Brownian path and a
Monte Carlo harness measuring empirical L2 convergence rates.

Importing the package or any of its modules loads numpy only. The exit-time
series and quantile table take erfc from the C library (math.erfc) and the
normal quantile from the stdlib (statistics), so the square and exp Monte
Carlo runs never load scipy; only the sqrt case's truth imports
scipy.special, when it runs, and only the quadrature oracle of acceptance
criterion 5 imports scipy.integrate."""

__version__ = "0.1.0"
