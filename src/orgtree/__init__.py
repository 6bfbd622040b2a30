"""Adaptive quadtree engine for 2D multi-agent simulation.

One tree per snapshot serves three consumers: inverse-square field kernels
with Barnes-Hut style acceleration, boids neighborhood queries, and detection
of dense groups as connected components of deep leaf cells.
"""

from .boids import SimParams, SpeciesParams, WorldState, make_world, step_world
from .config import Config, load_config
from .detect import (CellSet, Organization, group_cells, group_cells2,
                     organizations_from)
from .errors import ConfigError, DynamicsError, SingularPairError, ZeroDistanceError
from .geometry import AABB, CellCoord, Vec2, cell_box, cells_touch, child_coords
from .kernels import KernelParams, direct_field, direct_fields, tree_field, tree_fields
from .metrics import WeightedGraph, interaction_graph, modularity, organization_partition
from .ntree import Bodies, Body, NTree, Node, build_tree
from .run import detect_organizations, field_run, place_bodies, run_simulation
from .svg import render_svg

__version__ = "0.1.0"
