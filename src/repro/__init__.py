"""repro: a reproduction of "Resident Block-Structured Adaptive Mesh
Refinement on Thousands of Graphics Processing Units" (Beckingsale et al.,
ICPP 2015).

The package provides a SAMRAI-style block-structured AMR framework, a
GPU-resident patch-data library over a simulated CUDA runtime, data-
parallel coarsen/refine operators, a simulated MPI layer with virtual-time
accounting, and the CleverLeaf shock-hydrodynamics mini-application built
on top of all of it.

Quick start::

    from repro import (SodProblem, LagrangianEulerianIntegrator,
                       SimulationConfig, make_communicator, CudaDataFactory)

    comm = make_communicator("IPA", nranks=1, gpus=True)
    sim = LagrangianEulerianIntegrator(
        SodProblem((64, 64)), comm, CudaDataFactory(), SimulationConfig())
    sim.initialise()
    sim.run(max_steps=20)
"""

from .comm.simcomm import Message, Rank, SimCommunicator, make_communicator
from .exec import (
    Backend,
    HostBackend,
    NonResidentDeviceBackend,
    ResidentDeviceBackend,
    attribution_report,
    backend_for,
)
from .gpu.device import Device, DeviceSpec, K20X
from .gpu.errors import DeviceOutOfMemory, GpuError, MemorySpaceError
from .gpu.memory import DeviceArray
from .hydro.diagnostics import field_summary, gather_level_field
from .hydro.integrator import (
    LagrangianEulerianIntegrator,
    SimulationConfig,
    SimulationError,
)
from .hydro.patch_integrator import (
    CleverleafPatchIntegrator,
    NonResidentGpuPatchIntegrator,
)
from .hydro.problems import BlastProblem, Problem, SodProblem, TriplePointProblem
from .mesh.box import Box, IntVector
from .mesh.geometry import CartesianGridGeometry
from .mesh.hierarchy import PatchHierarchy
from .mesh.patch import Patch
from .mesh.patch_level import PatchLevel
from .mesh.variables import CudaDataFactory, HostDataFactory, Variable, VariableRegistry
from .perf.machines import IPA, TITAN, Machine

__version__ = "1.0.0"

__all__ = [
    "Box", "IntVector", "CartesianGridGeometry",
    "PatchHierarchy", "PatchLevel", "Patch",
    "Variable", "VariableRegistry", "HostDataFactory", "CudaDataFactory",
    "Device", "DeviceSpec", "DeviceArray", "K20X",
    "GpuError", "MemorySpaceError", "DeviceOutOfMemory",
    "SimCommunicator", "Rank", "Message",
    "LagrangianEulerianIntegrator", "SimulationConfig", "SimulationError",
    "CleverleafPatchIntegrator", "NonResidentGpuPatchIntegrator",
    "Problem", "SodProblem", "TriplePointProblem", "BlastProblem",
    "field_summary", "gather_level_field",
    "Machine", "IPA", "TITAN",
    "make_communicator",
    "Backend", "HostBackend", "ResidentDeviceBackend",
    "NonResidentDeviceBackend", "backend_for",
    "attribution_report",
]
