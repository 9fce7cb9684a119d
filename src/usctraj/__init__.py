"""Quantum-trajectory engine for two qubits ultrastrongly coupled to a cavity.

Subpackage map:

- ``hilbert``: truncated cavity (x) qubit (x) qubit space and elementary operators
- ``model``: full and effective Hamiltonians, closed-form couplings, resonance calibration
- ``dressed``: dressed bases; the positive-frequency jump channels as an S^+ stack and rates
- ``system``: the assembled system every engine takes, and the shared time grid
- ``mcwf``: the one trajectory kernel, for photodetection, homodyne and mixed unravellings;
  ``EnsembleResult`` (every engine's result), averages
- ``ensemble``: ensemble driver, grouped no-jump flows or the direct kernel
- ``lme``: dressed-picture Lindblad master-equation integrator
- ``oracles``: closed-form two-level subspace propagators and expectations
- ``stats``: first-jump and conditional second-jump histograms from the jump columns
- ``rng``: counter-based random words per trajectory and purpose, read by index
- ``workers``: independent calls run side by side in forked processes, results in call order
- ``errors``: exception types and the CLI exit codes they map to
- ``cli``: reproducible experiment runner
"""

__version__ = "0.1.0"
