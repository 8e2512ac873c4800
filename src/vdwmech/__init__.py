"""Molecular mechanics with pairwise and many-body van der Waals dispersion.

Energy models (harmonic bonded field, pairwise TS dispersion, many-body
dispersion from coupled oscillators), quasi-static and MD drivers, and the
benchmark geometry generators.
"""

from .bonded import HarmonicTopology, detect_topology, harmonic_energy
from .composite import CompositeModel
from .errors import (GeometryError, InputError, InstabilityError,
                     IntegrationError, NumericalError, ParseError,
                     TopologyError, VdwmechError)
from .generators import (ChainSpec, CntSpec, PeCrystalSpec, make_chain_pair,
                         make_pe_crystal, make_swcnt)
from .mbd import MbdModelConfig, assemble_mbd_matrix, mbd_energy, sym_eigen
from .md import MdConfig, MdResult, run_md
from .minimize import MinimizerConfig, MinimizeResult, minimize
from .pairwise import PwModelConfig, fermi_damping, pw_energy
from .periodic import (ImageSet, StressTensor, apply_cell_strain, cell_stress,
                       generate_images)
from .quasistatic import (LoadingProtocol, QuasistaticResult, StepRecord,
                          run_quasistatic)
from .species import (VdwSpeciesParams, VdwStates, load_species_params,
                      states_for)
from .structure import AtomicStructure, CellTensor
from .xyz import read_xyz, write_xyz

__version__ = "0.1.0"
