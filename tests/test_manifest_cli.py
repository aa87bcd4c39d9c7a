"""Manifest validation, scene building, CLI exit codes, artifact determinism."""

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
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
    validate_manifest,
)
from poldefl.pfmio import read_pfm, write_pfm
from poldefl.simulator import HeightField, Sphere

SMALL = 96


def _write_manifest(tmp_path, doc, name="scene.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestManifest:
    def test_default_scene_builds(self):
        scene = validate_manifest(bearing_ball_manifest(size=SMALL))
        assert isinstance(scene.surface, Sphere)
        assert scene.surface.radius == 12.7
        assert scene.material.m == 2.76 and scene.material.kappa == 3.79
        assert scene.dop_model == "eq6"

    def test_heightfield_scene_builds(self):
        scene = validate_manifest(qualitative_heightfield_manifest("horse", size=SMALL))
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
            validate_manifest(doc)

    @pytest.mark.parametrize("path, value, message", [
        (["pattern", "steps"], 2**62, "$.pattern.steps: must be <= 32"),
        (["pattern", "steps"], 33, "$.pattern.steps: must be <= 32"),
        (["camera", "width"], 2**40, "$.camera.width: must be <= 8192"),
        (["camera", "height"], 8193, "$.camera.height: must be <= 8192"),
        (["display", "width"], 2**40, "$.display.width: must be <= 8192"),
        (["display", "height"], 10**6, "$.display.height: must be <= 8192"),
    ])
    def test_sizes_have_upper_bounds(self, path, value, message):
        doc = bearing_ball_manifest(size=SMALL)
        _set(doc, path, value)
        with pytest.raises(ManifestError, match=re.escape(message)):
            validate_manifest(doc)

    def test_size_bounds_admit_sensor_and_display_scale(self):
        doc = bearing_ball_manifest(size=SMALL)
        doc["camera"].update(width=2448, height=2048, cx=1223.5, cy=1023.5)
        doc["display"].update(width=7680, height=4320)
        doc["pattern"]["steps"] = 32
        scene = validate_manifest(doc)
        assert (scene.camera.width, scene.camera.height) == (2448, 2048)
        assert scene.pattern.steps == 32

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


def _ball():
    return bearing_ball_manifest(size=32)


def _horse():
    return qualitative_heightfield_manifest("horse", size=32)


def _set(doc, path, value):
    *keys, last = path
    for k in keys:
        doc = doc[k]
    doc[last] = value


def _drop(doc, path):
    *keys, last = path
    for k in keys:
        doc = doc[k]
    del doc[last]


NAN, INF = float("nan"), float("inf")

# (id, base scene, edit, start of the error message: the JSON path, then
# the reason; None for a manifest that must still simulate). An edit
# changes the document in place, or returns the document to write instead.
MANIFEST_FAULTS = [
    ("fx-nan", _ball, lambda d: _set(d, ["camera", "fx"], NAN),
     "$.camera.fx: must be finite"),
    ("fx-inf", _ball, lambda d: _set(d, ["camera", "fx"], INF),
     "$.camera.fx: must be finite"),
    ("fx-true", _ball, lambda d: _set(d, ["camera", "fx"], True),
     "$.camera.fx: must be a number"),
    ("origin-nan", _ball, lambda d: _set(d, ["display", "origin", 1], NAN),
     "$.display.origin[1]: must be finite"),
    ("material-m-nan", _ball, lambda d: _set(d, ["material"], {"m": NAN}),
     "$.material.m: must be finite"),
    ("sigma-nan", _ball, lambda d: _set(d, ["noise", "sigma"], NAN),
     "$.noise.sigma: must be finite"),
    ("headroom-nan", _ball, lambda d: _set(d, ["render", "exposure_headroom"], NAN),
     "$.render.exposure_headroom: unknown key"),
    ("auto-expose", _ball, lambda d: _set(d, ["render", "auto_expose"], True),
     "$.render.auto_expose: unknown key"),
    ("freq-low", _ball, lambda d: _set(d, ["pattern", "freq_low"], 2),
     "$.pattern.freq_low: unknown key"),
    ("surface-unknown-key", _ball, lambda d: _set(d, ["surface", "colour"], "red"),
     "$.surface.colour: unknown key"),
    ("radius-string", _ball, lambda d: _set(d, ["surface", "radius"], "12"),
     "$.surface.radius: must be a number"),
    ("sphere-without-radius", _ball, lambda d: _drop(d, ["surface", "radius"]),
     "$.surface.radius: required"),
    ("sphere-without-center", _ball, lambda d: _drop(d, ["surface", "center"]),
     "$.surface.center: required"),
    ("center-2-vector", _ball, lambda d: _set(d, ["surface", "center"], [0.0, 48.0]),
     "$.surface.center: must be a list of 3"),
    ("s-min-above-s-max", _ball, lambda d: _set(d, ["working_distance", "s_min"], 300.0),
     "$.working_distance: require 0 < s_min < s_max"),
    ("s-max-minus-inf", _ball, lambda d: _set(d, ["working_distance", "s_max"], -INF),
     "$.working_distance.s_max: must be finite"),
    ("pattern-mean-negative", _ball, lambda d: _set(d, ["pattern", "mean"], -3),
     "$.pattern: mean +/- depth"),
    ("pattern-steps-fraction", _ball, lambda d: _set(d, ["pattern", "steps"], 4.5),
     "$.pattern.steps: must be an integer"),
    ("pattern-axis-unknown", _ball, lambda d: _set(d, ["pattern", "axes"], ["u", "w"]),
     "$.pattern.axes[1]: must be one of"),
    ("pattern-axes-empty", _ball, lambda d: _set(d, ["pattern", "axes"], []),
     '$.pattern.axes: must hold "u" and "v" once each'),
    ("pattern-axes-u", _ball, lambda d: _set(d, ["pattern", "axes"], ["u"]),
     '$.pattern.axes: must hold "u" and "v" once each'),
    ("pattern-axes-u-u", _ball, lambda d: _set(d, ["pattern", "axes"], ["u", "u"]),
     '$.pattern.axes: must hold "u" and "v" once each'),
    ("pattern-steps-2**62", _ball, lambda d: _set(d, ["pattern", "steps"], 2**62),
     "$.pattern.steps: must be <= 32"),
    ("rotation-not-orthonormal", _ball,
     lambda d: _set(d, ["camera", "rotation"], [[1, 0, 0], [0, 2, 0], [0, 0, 1]]),
     "$.camera: rotation must be orthonormal"),
    ("rotation-3x2", _ball, lambda d: _set(d, ["camera", "rotation"], [[1, 0], [0, 1], [0, 0]]),
     "$.camera.rotation[0]: must be a list of 3"),
    ("display-axes-parallel", _ball, lambda d: _set(d, ["display", "v"], [1.0, 0.0, 0.0]),
     "$.display: display basis vectors"),
    ("cx-outside-sensor", _ball, lambda d: _set(d, ["camera", "cx"], 100.0),
     "$.camera: principal point outside"),
    ("seed-2**63", _ball, lambda d: _set(d, ["noise", "seed"], 2**63),
     "$.noise.seed: must be an integer"),
    ("bits-unknown", _ball, lambda d: _set(d, ["noise", "bits"], 7),
     "$.noise.bits: must be one of"),
    ("bits-false", _ball, lambda d: _set(d, ["noise", "bits"], False),
     "$.noise.bits: must be one of"),
    ("photon-string", _ball, lambda d: _set(d, ["noise", "photon"], "yes"),
     "$.noise.photon: must be true or false"),
    ("dop-model-unknown", _ball, lambda d: _set(d, ["render", "dop_model"], "eq7"),
     "$.render.dop_model: must be one of"),
    ("material-unknown-preset", _ball, lambda d: _set(d, ["material"], "nonexistium"),
     "$.material: unknown material preset"),
    ("kappa-negative", _ball, lambda d: _set(d, ["material"], {"m": 2.0, "kappa": -1.0}),
     "$.material.kappa: must be >= 0"),
    ("surface-kind-unknown", _ball, lambda d: _set(d, ["surface"], {"kind": "torus"}),
     "$.surface.kind: must be one of"),
    ("plane-zero-normal", _ball,
     lambda d: _set(d, ["surface"], {"kind": "plane", "point": [0, 0, 48], "normal": [0, 0, 0]}),
     "$.surface: cannot normalize"),
    ("camera-missing", _ball, lambda d: _drop(d, ["camera"]),
     "$.camera: required"),
    ("top-level-unknown-key", _ball, lambda d: _set(d, ["scale"], 2.0),
     "$.scale: unknown key"),
    ("top-level-list", _ball, lambda d: [d],
     "$: must be an object"),
    ("heightfield-without-z-grid", _horse, lambda d: _drop(d, ["surface", "z_grid"]),
     "$.surface.z_grid: required"),
    ("z-grid-ragged", _horse, lambda d: _drop(d, ["surface", "z_grid", 5, -1]),
     "$.surface.z_grid: rows must all have the same length"),
    ("z-grid-nan", _horse, lambda d: _set(d, ["surface", "z_grid", 3, 7], NAN),
     "$.surface.z_grid[3][7]: must be finite"),
    ("z-grid-bool", _horse, lambda d: _set(d, ["surface", "z_grid", 0, 0], False),
     "$.surface.z_grid[0][0]: must be a number"),
    ("z-grid-3x3", _horse, lambda d: _set(d, ["surface", "z_grid"], [[0.0] * 3] * 3),
     "$.surface: heightfield grid must be >= 4x4"),
    ("heightfield-dx-zero", _horse, lambda d: _set(d, ["surface", "dx"], 0),
     "$.surface.dx: must be > 0"),
    ("width-integral-float", _ball, lambda d: _set(d, ["camera", "width"], 32.0),
     None),
]


class TestManifestFaults:
    @pytest.mark.parametrize("base, edit, message", [row[1:] for row in MANIFEST_FAULTS],
                             ids=[row[0] for row in MANIFEST_FAULTS])
    def test_simulate_exit_code(self, tmp_path, capsys, base, edit, message):
        doc = base()
        replaced = edit(doc)
        man = _write_manifest(tmp_path, doc if replaced is None else replaced)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--manifest", str(man), "--out", str(out)])
        err = capsys.readouterr().err
        if message is None:
            assert code == 0 and (out / "manifest.json").exists()
            return
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"configuration error: {message}"), err
        assert not out.exists()


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

    def test_scene_without_hits_is_data_error(self, tmp_path, capsys):
        doc = bearing_ball_manifest(size=32)
        doc["surface"]["center"] = [0.0, 0.0, 500.0]  # beyond the working interval
        man = _write_manifest(tmp_path, doc)
        run = tmp_path / "run"
        assert cli.main(["simulate", "--manifest", str(man), "--out", str(run)]) \
            == cli.EXIT_DATA
        assert "(0 of 1024 pixels hit)" in capsys.readouterr().err
        assert not run.exists()

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli.main(["reconstruct", str(tmp_path / "nope"), "--mode", "multi"]) \
            == cli.EXIT_DATA
        assert cli.main(["evaluate", str(tmp_path / "a"), str(tmp_path / "b")]) \
            == cli.EXIT_DATA

    @pytest.mark.parametrize("ok_pixels, message", [
        (0, "{sol}: no OK pixel to evaluate (status counts"),
        (3, "sphere fit needs at least 4 points"),  # a MetricError
    ])
    def test_nothing_to_evaluate_is_data_error(self, cli_sim_dir, tmp_path, capsys,
                                               ok_pixels, message):
        sol = tmp_path / "sol"
        assert cli.main(["reconstruct", str(cli_sim_dir), "--mode", "multi",
                         "--out", str(sol)]) == 0
        status = read_pfm(sol / "status.pfm")
        ok = np.argwhere(status == 0)[:ok_pixels]
        status[...] = 2  # BOTH_FEASIBLE: solved, but not scored
        status[tuple(ok.T)] = 0
        write_pfm(sol / "status.pfm", status)
        capsys.readouterr()
        assert cli.main(["evaluate", str(sol), str(cli_sim_dir / "truth")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {message.format(sol=sol)}"), err

    def test_axes_in_either_order_run_end_to_end(self, tmp_path):
        doc = bearing_ball_manifest(size=SMALL)
        doc["pattern"]["axes"] = ["v", "u"]
        man = _write_manifest(tmp_path, doc)
        run = tmp_path / "run"
        assert cli.main(["simulate", "--manifest", str(man), "--out", str(run)]) == 0
        assert cli.main(["reconstruct", str(run), "--mode", "multi"]) == 0
        assert cli.main(["evaluate", str(run / "solution"), str(run / "truth")]) == 0
        report = json.loads((run / "solution" / "report.json").read_text())
        assert report["status_counts"]["ok"] > 0 and report["normal_rmse_deg"] < 0.05

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
        (lambda run: write_pfm(run / "frames" / "f000_I000.pfm", np.full((SMALL, SMALL), np.nan)),
         "f000_I000.pfm"),
        (lambda run: _edit_raster(run / "frames" / "f007_I135.pfm", (40, 51), np.inf),
         "f007_I135.pfm"),
        (lambda run: [write_pfm(p, np.zeros((SMALL, SMALL)))
                      for p in (run / "frames").glob("*.pfm")],
         "no pixel has a depth (status counts {'ok': 0,"),
    ], ids=["truncated-json", "entry-without-files", "file-not-a-path", "entry-not-an-object",
            "pattern-without-step", "raster-shape", "all-nan-raster", "one-inf-sample",
            "all-frames-zero"])
    def test_bad_frame_data_is_data_error(self, cli_sim_dir, tmp_path, capsys, damage, named):
        run = tmp_path / "run"
        shutil.copytree(cli_sim_dir, run)
        damage(run)
        assert cli.main(["reconstruct", str(run), "--mode", "multi"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and named in err

    def test_package_needs_no_scipy(self, tmp_path):
        """The CLI, a heightfield trace, a single-shot decode, the DoP peak
        of every model and a simulate run on numpy alone: no scipy module
        loads, and jsonschema cannot be imported at all."""
        code = textwrap.dedent("""
            import sys, json, numpy as np

            class NoJsonschema:
                def find_spec(self, name, path=None, target=None):
                    if name.split('.')[0] == 'jsonschema':
                        raise ImportError(name)

            sys.meta_path.insert(0, NoJsonschema())
            import poldefl.cli
            from poldefl import codec, manifest, polarization, simulator
            doc = manifest.qualitative_heightfield_manifest('horse', size=32)
            assert simulator.trace(manifest.validate_manifest(doc)).mask.any()
            z = np.zeros((32, 32))
            codec.decode_fourier_single_shot(z, reference_phase={'u': z, 'v': z})
            polarization.dop_peak(2.76, 3.79, 'exact')
            man = sys.argv[1] + '/scene.json'
            with open(man, 'w') as f:
                json.dump(manifest.bearing_ball_manifest(size=32), f)
            assert poldefl.cli.main(['simulate', '--manifest', man,
                                     '--out', sys.argv[1] + '/run']) == 0
            print(sorted(m for m in sys.modules
                         if m.split('.')[0] in ('scipy', 'jsonschema')))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(poldefl.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "run" / "manifest.json").exists()


def _edit_raster(path: Path, pixel, value):
    raster = read_pfm(path)
    raster[pixel] = value
    write_pfm(path, raster)


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
