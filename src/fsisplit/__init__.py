"""Robin-Robin loosely coupled splitting solver for a linear FSI model."""

from .mesh import ChannelGeometry, Mesh, build_two_layer_mesh
from .splitting import (Discretization, PhysicalParams, RobinRobinSolver,
                        SplitState, TimeGrid)

__all__ = [
    "ChannelGeometry", "Mesh", "build_two_layer_mesh",
    "Discretization", "PhysicalParams", "RobinRobinSolver", "SplitState",
    "TimeGrid",
]
