"""qphase: exact and phase-space quantum dynamics for interacting Bose gases.

Modules
-------
lattice          many-body Hilbert-space dimension counting
fock             Fock-basis states, ladder operators, Kerr oracle
spins            Schwinger spin moments, squeezing, entanglement criteria
doublewell       the two-well two-spin squeezing/entanglement pipeline
stochastic       keyed-stream noise, SDE stepping, moment accumulation
wigner           truncated Wigner sampling, losses, ordering conversion
plusp            positive-P doubled-phase-space evolution and time reversal
gaussian_entropy Gaussian-operator Renyi-2 entropy, bosons and fermions
variational      coherent-state superposition ("multiverse") dynamics
scenarios, cli   declarative scenario configs and the qphase command
"""

__version__ = "0.1.0"
