"""Gas network transient simulator with a nodal observer.

Semilinear invariant-space model on a pipe graph: upwind transport at the
sound speed, implicit friction, algebraic junction coupling, and an observer
system driven by nodal measurements whose error decays exponentially.

The root exports what the sweep script and the README examples use; the
rest of the API lives in the submodules listed in the README.
"""

from .diagnostics import fit_decay_rate
from .fileio import bundled_path, parse_network_file, parse_scenario_file
from .run import run_observer_pair

__version__ = "0.1.0"
