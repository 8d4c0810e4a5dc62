"""strobetomo: stroboscopic quantum tomography for parametric Kraus channels.

The package answers three questions about a Markovian open quantum system
with generator L:

* **Can one observable reconstruct the state?**  Yes exactly when the
  index of cyclicity is 1 (:func:`strobetomo.analysis.spectral_report`,
  :func:`strobetomo.analysis.optimality_report`).
* **Which observables work?**  Those passing the Krylov span check, read
  off one Hermitian eigendecomposition of the generator
  (:func:`strobetomo.analysis.span_report`; for qubits the closed form
  :func:`strobetomo.analysis.two_level_admissible`).
* **How is the state recovered?**  Measure Q at n^2 - 1 instants and run
  the linear inversion (:func:`strobetomo.reconstruct.plan` /
  :func:`strobetomo.reconstruct.execute`).

Two concrete channel families (a qubit/Pauli one and a qutrit/Gell-Mann
one) with closed-form spectra live in :mod:`strobetomo.channels`; the
command-line interface is in :mod:`strobetomo.cli`.
"""

from . import analysis, channels, cli, matcore, reconstruct
from .analysis import *  # noqa: F403
from .channels import *  # noqa: F403
from .matcore import *  # noqa: F403
from .reconstruct import *  # noqa: F403

__version__ = "0.1.0"

#: The submodules, every name in their ``__all__`` (matcore's ``as_matrix``
#: included) and the version.
__all__ = [
    "analysis",
    "channels",
    "cli",
    "matcore",
    "reconstruct",
    *analysis.__all__,
    *channels.__all__,
    *matcore.__all__,
    *reconstruct.__all__,
    "__version__",
]
