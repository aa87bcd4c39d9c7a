"""Output fingerprints: four small scenes run end to end must reproduce the
hashes and RMSEs stored in tests/fingerprints.json. A change that is meant
to move the outputs regenerates the file with scripts/fingerprints.py."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("fingerprints", ROOT / "scripts" / "fingerprints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_stored_fingerprints():
    script = _script()
    stored = json.loads(script.FILE.read_text())
    assert set(stored["scenes"]) == set(script.SCENES)
    assert script.differences(stored, script.compute()) == []


def test_differences_names_the_field():
    script = _script()
    stored = {"rel_tol": 1e-9, "scenes": {"s": {"frames_sha256": "a", "normal_rmse_deg": 1.0}}}
    near = {"scenes": {"s": {"frames_sha256": "a", "normal_rmse_deg": 1.0 + 1e-12}}}
    far = {"scenes": {"s": {"frames_sha256": "b", "normal_rmse_deg": 1.1}}}
    assert script.differences(stored, near) == []
    assert [line.split(":")[0] for line in script.differences(stored, far)] == [
        "s.frames_sha256", "s.normal_rmse_deg"]
