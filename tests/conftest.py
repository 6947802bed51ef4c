"""Shared fixtures: small topology instances reused across the test suite."""

from __future__ import annotations

import pytest

from repro.core import build_hammingmesh
from repro.topology import (
    build_dragonfly,
    build_fat_tree,
    build_hyperx2d,
    build_torus2d,
)


@pytest.fixture(scope="session")
def hx2mesh_4x4():
    """A 4x4 Hx2Mesh (64 accelerators, single-switch rows/columns)."""
    return build_hammingmesh(2, 2, 4, 4)


@pytest.fixture(scope="session")
def hx4mesh_2x3():
    """A rectangular 2x3 Hx4Mesh (96 accelerators)."""
    return build_hammingmesh(4, 4, 2, 3)


@pytest.fixture(scope="session")
def hx1mesh_4x4():
    """An Hx1Mesh / HyperX-equivalent with 1x1 boards."""
    return build_hammingmesh(1, 1, 4, 4)


@pytest.fixture(scope="session")
def fat_tree_64():
    """64 accelerators on one 64-port switch (with the default radix 64 the
    "fat tree" is a single crossbar: one path per pair, no routing choice)."""
    return build_fat_tree(64)


@pytest.fixture(scope="session")
def fat_tree_64_radix16():
    """A 64-accelerator two-level fat tree of 16-port switches with 50%
    tapering: several leaf-to-leaf paths per pair."""
    return build_fat_tree(64, radix=16, taper=0.5)


@pytest.fixture(scope="session")
def fat_tree_128_tapered():
    """A 128-accelerator fat tree with 75% tapering."""
    return build_fat_tree(128, taper=0.25)


@pytest.fixture(scope="session")
def dragonfly_small_fixture():
    """A small Dragonfly: 4 groups of 4 routers with 2 endpoints each."""
    return build_dragonfly(
        4, routers_per_group=4, endpoints_per_router=2, global_links_per_router=2
    )


@pytest.fixture(scope="session")
def torus_4x4_boards():
    """A 2D torus of 4x4 2x2-boards (8x8 accelerators)."""
    return build_torus2d(4, 4)


@pytest.fixture(scope="session")
def hyperx_4x4():
    """A switch-based 4x4 2D HyperX with one terminal per switch."""
    return build_hyperx2d(4, 4, terminals=1)


@pytest.fixture(scope="session")
def all_small_topologies(
    hx2mesh_4x4, fat_tree_64, dragonfly_small_fixture, torus_4x4_boards, hyperx_4x4
):
    """One representative of every topology family (small sizes)."""
    return {
        "hammingmesh": hx2mesh_4x4,
        "fattree": fat_tree_64,
        "dragonfly": dragonfly_small_fixture,
        "torus": torus_4x4_boards,
        "hyperx": hyperx_4x4,
    }
