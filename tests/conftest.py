import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from uthermo import Cocycle, DrivingSystem, MapDescriptor, ShearTerm

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def trivial_system():
    return DrivingSystem(kind="deterministic-trivial", symbol_count=1, distribution=(1.0,))


@pytest.fixture(scope="session")
def cat_cocycle():
    return Cocycle(maps=(MapDescriptor(matrix=np.array([[2, 1], [1, 1]])),))


@pytest.fixture(scope="session")
def iid_system():
    return DrivingSystem(kind="iid", symbol_count=2, distribution=(0.5, 0.5))


@pytest.fixture(scope="session")
def iid_cocycle():
    a = np.array([[2, 1], [1, 1]])
    return Cocycle(maps=(MapDescriptor(matrix=a), MapDescriptor(matrix=a @ a)))


@pytest.fixture(scope="session")
def t3_system():
    return DrivingSystem(kind="iid", symbol_count=2, distribution=(0.5, 0.5))


@pytest.fixture(scope="session")
def t3_cocycle():
    m = np.array([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    return Cocycle(
        maps=(
            MapDescriptor(matrix=m, translation=(0.0, 0.0, 0.41421356)),
            MapDescriptor(matrix=m, translation=(0.0, 0.0, 0.73205081)),
        )
    )


@pytest.fixture(scope="session")
def perturbed_cat_cocycle():
    shear = ShearTerm(amplitude=0.015, wavevector=(0, 1), phase=0.3)
    return Cocycle(maps=(MapDescriptor(matrix=np.array([[2, 1], [1, 1]]), shears=(shear,)),))


@pytest.fixture(scope="session")
def plane_leaf_cocycle():
    """A 3-torus map with two expanding directions, so its leaves are 2-d."""
    return Cocycle(maps=(MapDescriptor(matrix=np.array([[1, 1, 0], [1, 2, 1], [0, 1, 2]])),))


@pytest.fixture(scope="session")
def sheared_plane_leaf_cocycle():
    shear = ShearTerm(amplitude=0.01, wavevector=(0, 0, 1), phase=0.2)
    return Cocycle(maps=(MapDescriptor(matrix=np.array([[1, 1, 0], [1, 2, 1], [0, 1, 2]]),
                                       shears=(shear,)),))
