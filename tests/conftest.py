import os
from pathlib import Path

import numpy as np
import pytest

SEED = 20260809
SRC = Path(__file__).resolve().parents[1] / "src"


def src_env(**extra: str) -> dict:
    """This process's environment plus ``extra``, with this checkout's src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(SEED))
