"""Manifest validation, scene building, CLI exit codes, artifact determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poldefl
from poldefl import cli, pipeline
from poldefl.manifest import (
    ManifestError,
    bearing_ball_manifest,
    load_manifest,
    manifest_hash,
    material_from,
    qualitative_heightfield_manifest,
    scene_from_manifest,
    validate_manifest,
)
from poldefl.pfmio import write_pfm
from poldefl.simulator import HeightField, Sphere

SMALL = 96


def _write_manifest(tmp_path, doc, name="scene.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestManifest:
    def test_default_scene_builds(self):
        scene = scene_from_manifest(bearing_ball_manifest(size=SMALL))
        assert isinstance(scene.surface, Sphere)
        assert scene.surface.radius == 12.7
        assert scene.material.m == 2.76 and scene.material.kappa == 3.79
        assert scene.dop_model == "eq6"

    def test_heightfield_scene_builds(self):
        scene = scene_from_manifest(qualitative_heightfield_manifest("horse", size=SMALL))
        assert isinstance(scene.surface, HeightField)
        assert scene.material.m == 3.13  # chrome preset

    def test_schema_error_reports_json_path(self):
        doc = bearing_ball_manifest(size=SMALL)
        del doc["camera"]["fx"]
        with pytest.raises(ManifestError, match=r"\$\.camera"):
            validate_manifest(doc)
        doc2 = bearing_ball_manifest(size=SMALL)
        doc2["working_distance"]["s_min"] = -1.0
        with pytest.raises(ManifestError, match=r"\$\.working_distance\.s_min"):
            validate_manifest(doc2)

    def test_unknown_fields_rejected(self):
        doc = bearing_ball_manifest(size=SMALL)
        doc["camera"]["zoom"] = 2.0
        with pytest.raises(ManifestError):
            validate_manifest(doc)

    def test_unknown_surface_kind_rejected(self):
        doc = bearing_ball_manifest(size=SMALL)
        doc["surface"] = {"kind": "torus"}
        with pytest.raises(ManifestError):
            validate_manifest(doc)

    def test_unknown_material_preset_rejected(self):
        with pytest.raises(ManifestError, match="nonexistium"):
            material_from("nonexistium")
        doc = bearing_ball_manifest(size=SMALL)
        doc["material"] = "nonexistium"
        with pytest.raises(ManifestError):
            scene_from_manifest(doc)

    def test_inline_material(self):
        mat = material_from({"m": 1.5})
        assert mat.is_dielectric
        mat2 = material_from({"m": 2.0, "kappa": 3.0})
        assert mat2.kappa == 3.0

    def test_load_manifest_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(p)
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "missing.json")

    def test_manifest_hash_key_order_invariant(self):
        doc = bearing_ball_manifest(size=SMALL)
        reordered = json.loads(json.dumps(doc, sort_keys=True))
        assert manifest_hash(doc) == manifest_hash(reordered)
        doc2 = bearing_ball_manifest(size=SMALL, seed=1)
        assert manifest_hash(doc) != manifest_hash(doc2)


class TestSimulateAtomicity:
    def test_invalid_schema_leaves_no_partial_outputs(self, tmp_path):
        doc = bearing_ball_manifest(size=SMALL)
        doc["surface"] = {"kind": "torus"}
        out = tmp_path / "never"
        with pytest.raises(ManifestError):
            pipeline.simulate(doc, out)
        assert not out.exists()


@pytest.fixture(scope="module")
def cli_sim_dir(tmp_path_factory):
    """A small scene simulated through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    man = _write_manifest(root, bearing_ball_manifest(size=SMALL))
    out = root / "sim"
    assert cli.main(["simulate", "--manifest", str(man), "--out", str(out)]) == 0
    return out


class TestCli:
    def test_simulate_inventory(self, cli_sim_dir):
        frames = json.loads((cli_sim_dir / "frames" / "frames.json").read_text())
        # 8 steps x 2 freqs x 2 axes = 32 frames, 4 channel PFMs each
        assert len(frames) == 32
        pfms = list((cli_sim_dir / "frames").glob("*.pfm"))
        assert len(pfms) == 4 * 32
        assert not (cli_sim_dir / "patterns").exists()
        for name in ("depth.pfm", "normal.pfm", "theta.pfm", "display_ij.pfm", "mask.pfm"):
            assert (cli_sim_dir / "truth" / name).exists()
        record = json.loads((cli_sim_dir / "run_record.json").read_text())
        assert record["command"] == "simulate"
        assert len(record["outputs"]) > 130  # every artifact digested

    def test_reconstruct_evaluate_roundtrip(self, cli_sim_dir, tmp_path, capsys):
        out = tmp_path / "sol"
        code = cli.main(["reconstruct", str(cli_sim_dir), "--mode", "multi",
                         "--out", str(out), "--model", "exact-fresnel"])
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["dop_model"] == "exact"
        code = cli.main(["evaluate", str(out), str(cli_sim_dir / "truth")])
        assert code == 0
        text = capsys.readouterr().out
        assert "normal RMSE" in text
        report = json.loads((out / "report.json").read_text())
        assert report["normal_rmse_deg"] >= 0

    def test_reproduce_passes_both_sizes(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "reproduce",
                            lambda out, **kw: calls.append(kw) or {"table": ""})
        out = str(tmp_path / "rep")
        assert cli.main(["reproduce", "--out", out]) == 0
        assert cli.main(["reproduce", "--out", out, "--size", "64",
                         "--heightfield-size", "32"]) == 0
        assert calls == [{"size": 512, "heightfield_size": 192},
                         {"size": 64, "heightfield_size": 32}]

    def test_invalid_manifest_is_config_error(self, tmp_path):
        doc = bearing_ball_manifest(size=SMALL)
        doc["surface"] = {"kind": "torus"}
        man = _write_manifest(tmp_path, doc)
        assert cli.main(["simulate", "--manifest", str(man)]) == cli.EXIT_CONFIG

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli.main(["reconstruct", str(tmp_path / "nope"), "--mode", "multi"]) \
            == cli.EXIT_DATA
        assert cli.main(["evaluate", str(tmp_path / "a"), str(tmp_path / "b")]) \
            == cli.EXIT_DATA

    def test_mode_mismatch_is_data_error(self, cli_sim_dir, tmp_path):
        # multi-shot frames, single-shot decode requested: explicit error
        code = cli.main(["reconstruct", str(cli_sim_dir), "--mode", "single",
                         "--out", str(tmp_path / "s")])
        assert code == cli.EXIT_DATA

    @pytest.mark.parametrize("damage, named", [
        (lambda run: (run / "frames" / "frames.json").write_text("{"), "frames.json"),
        (lambda run: _edit_index(run, lambda idx: idx[3].pop("files")), "frames.json"),
        (lambda run: _edit_index(run, lambda idx: idx[0]["files"].update(I045=7)),
         "frames.json"),
        (lambda run: _edit_index(run, lambda idx: idx.insert(0, "f000")), "frames.json"),
        (lambda run: _edit_index(run, lambda idx: idx[1]["pattern"].pop("step")), "frames.json"),
        (lambda run: write_pfm(run / "frames" / "f005_I090.pfm", np.zeros((SMALL, SMALL - 1))),
         "f005_I090.pfm"),
    ], ids=["truncated-json", "entry-without-files", "file-not-a-path", "entry-not-an-object",
            "pattern-without-step", "raster-shape"])
    def test_bad_frame_data_is_data_error(self, cli_sim_dir, tmp_path, capsys, damage, named):
        run = tmp_path / "run"
        shutil.copytree(cli_sim_dir, run)
        damage(run)
        assert cli.main(["reconstruct", str(run), "--mode", "multi"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and named in err

    def test_package_needs_no_scipy(self):
        """The CLI, a heightfield trace, a single-shot decode and the DoP
        peak of every model run on numpy alone: no scipy module loads."""
        code = ("import sys, numpy as np\n"
                "import poldefl.cli\n"
                "from poldefl import codec, manifest, polarization, simulator\n"
                "doc = manifest.qualitative_heightfield_manifest('horse', size=32)\n"
                "assert simulator.trace(manifest.scene_from_manifest(doc)).mask.any()\n"
                "z = np.zeros((32, 32))\n"
                "codec.decode_fourier_single_shot(z, reference_phase={'u': z, 'v': z})\n"
                "polarization.dop_peak(2.76, 3.79, 'exact')\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(Path(poldefl.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "[]"


def _edit_index(run: Path, edit):
    path = run / "frames" / "frames.json"
    index = json.loads(path.read_text())
    edit(index)
    path.write_text(json.dumps(index))


def _artifact_digests(root: Path) -> dict:
    import hashlib
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and "run_record" not in p.name:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestDeterminism:
    def test_rerun_bit_identical(self, tmp_path):
        doc = bearing_ball_manifest(size=SMALL, sigma=0.005, seed=3)
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline.simulate(doc, a)
        pipeline.simulate(doc, b)
        da, db = _artifact_digests(a), _artifact_digests(b)
        assert da == db
        pipeline.reconstruct(a, "multi")
        pipeline.reconstruct(b, "multi")
        assert _artifact_digests(a / "solution") == _artifact_digests(b / "solution")

    def test_seed_changes_noise_not_truth(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline.simulate(bearing_ball_manifest(size=SMALL, sigma=0.005, seed=1), a)
        pipeline.simulate(bearing_ball_manifest(size=SMALL, sigma=0.005, seed=2), b)
        da, db = _artifact_digests(a), _artifact_digests(b)
        truth_keys = [k for k in da if k.startswith("truth/")]
        frame_keys = [k for k in da if k.startswith("frames/") and k.endswith(".pfm")]
        assert truth_keys and frame_keys
        assert all(da[k] == db[k] for k in truth_keys)
        assert any(da[k] != db[k] for k in frame_keys)
