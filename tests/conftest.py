"""Shared fixtures, oracle helpers and the two ways to run the CLI."""

import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from levychaos.models import GammaJumps, LevyModel, MomentVector, parse_model

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("golden_hashes", TOOLS / "golden_hashes.py")
TOOL = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TOOL)

run_cli = TOOL.call  # in process, as every golden entry runs


def run_process(args):
    """Run the CLI in a new interpreter, where the process boundary is what a test checks."""
    return subprocess.run([sys.executable, "-m", "levychaos.cli", *args], capture_output=True, text=True)


@pytest.fixture
def gamma_model() -> LevyModel:
    return LevyModel.build(jump_part=GammaJumps(10, 20))


@pytest.fixture
def mixed_model() -> LevyModel:
    return parse_model("brownian:sigma=0.01+gamma:a=10,b=20")


def random_rational_mv(rng: np.random.Generator, order: int, *, adjusted: bool = True) -> MomentVector:
    m = tuple(Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9))) for _ in range(order))
    return MomentVector(m, Fraction(0), adjusted=adjusted)
