"""HammingMesh core: topology parameters, construction, routing, sub-meshes.

This package contains the paper's primary contribution: the HammingMesh
topology family (Section III), its adaptive minimal routing (Section IV-C),
and virtual sub-HxMesh extraction (Section III-E) which underpins flexible
job allocation and fault tolerance.
"""

from .hammingmesh import accelerator_coordinates, build_hammingmesh, build_hammingmesh_params
from .params import HxMeshParams, hx1mesh, hx2mesh, hx4mesh
from .routing import MAX_VIRTUAL_CHANNELS, HxMeshRouter, board_mesh_path, virtual_channel_of
from .subnetwork import VirtualSubMesh, find_submesh_masks, find_submesh_rows, is_valid_submesh

__all__ = [
    "HxMeshParams",
    "hx1mesh",
    "hx2mesh",
    "hx4mesh",
    "build_hammingmesh",
    "build_hammingmesh_params",
    "accelerator_coordinates",
    "HxMeshRouter",
    "board_mesh_path",
    "virtual_channel_of",
    "MAX_VIRTUAL_CHANNELS",
    "VirtualSubMesh",
    "find_submesh_rows",
    "find_submesh_masks",
    "is_valid_submesh",
]
