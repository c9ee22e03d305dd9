"""The committed configs under configs/, as the tests read them: the same
files the CLI and CI pass with --config. Validation-only; not part of the
library."""

import json
from pathlib import Path

from rodhom.material import profile_from_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
INTERTWINED = str(CONFIGS / "intertwined.json")


def intertwined_material():
    """The material object of configs/intertwined.json, the paper's
    intertwined case: a stiff layer coupling e33 with 2e13, which breaks rod
    material symmetry (smallest eigenvalue 3.88)."""
    with open(INTERTWINED) as fh:
        return json.load(fh)["material"]


def intertwined_profile():
    return profile_from_json(intertwined_material())
