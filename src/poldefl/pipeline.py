"""End-to-end stages wiring the modules into file-based experiments:
simulate -> decode/reconstruct -> evaluate, plus the one-command
reproduction run. All stages are deterministic given manifest + seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .codec import (
    FREQ_LOW,
    decode_fourier_single_shot,
    decode_phase_shift,
    phase_to_display_coords,
    unwrap_two_frequency,
)
from .manifest import RunRecord, load_manifest, manifest_hash, validate_manifest
from .metrics import evaluate as evaluate_maps
from .pfmio import read_pfm, write_pfm, write_sidecar
from .reconstruct import Status, export_geometry, fuse_map, orthographic_baseline
from .simulator import CHANNEL_NAMES, Sphere, render_stack, trace
from .polarization import stokes_from_quad


class DataError(ValueError):
    """Missing or inconsistent input data on disk."""


# Validity thresholds as fractions of the sensor full scale, where the
# brightest noiseless sample sits at simulator.EXPOSURE_HEADROOM (0.95):
# unlit pixels, and pixels whose fringe amplitude is at the noise floor.
DARK_THRESHOLD = 0.05
MODULATION_THRESHOLD = 0.02


def _nan_to(a, fill=0.0):
    return np.where(np.isfinite(a), a, fill)


def simulate(manifest_doc: dict, out_dir) -> dict:
    """Render a scene to disk: per-frame channel PFMs with their pattern
    metadata, the ground-truth set and a render report. A scene in which
    no camera ray reaches the display via the surface is a DataError,
    raised before any output."""
    scene = validate_manifest(manifest_doc)
    record = RunRecord("simulate", manifest_hash(manifest_doc), __version__)

    truth = trace(scene)
    record.stage("trace")
    if not truth.mask.any():
        raise DataError(f"no camera ray reaches the display via the surface "
                        f"(0 of {truth.mask.size} pixels hit)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames, report = render_stack(scene, truth)
    record.stage("render")

    (out / "frames").mkdir(exist_ok=True)
    (out / "truth").mkdir(exist_ok=True)
    index = []
    for k, (pattern, channels) in enumerate(frames):
        files = {}
        for name, ch in zip(CHANNEL_NAMES, channels):
            rel = f"frames/f{k:03d}_{name}.pfm"
            write_pfm(out / rel, ch)
            files[name] = rel
        index.append({"index": k, "files": files, "pattern": pattern.meta()})
    (out / "frames" / "frames.json").write_text(json.dumps(index, indent=2))
    record.stage("write_frames")

    write_pfm(out / "truth" / "depth.pfm", _nan_to(truth.depth))
    write_pfm(out / "truth" / "normal.pfm", _nan_to(truth.normals))
    write_pfm(out / "truth" / "theta.pfm", _nan_to(truth.theta))
    ij3 = np.concatenate([_nan_to(truth.display_ij), truth.mask[..., None]], axis=-1)
    write_pfm(out / "truth" / "display_ij.pfm", ij3)
    write_sidecar(out / "truth" / "display_ij.pfm",
                  {"kind": "display coords", "channels": ["i", "j", "mask"]})
    write_pfm(out / "truth" / "mask.pfm", truth.mask.astype(np.float32))
    (out / "render_report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    (out / "manifest.json").write_text(json.dumps(manifest_doc, indent=2, sort_keys=True))
    record.stage("write_truth")
    record.inventory(out)
    record.write(out / "run_record.json")
    return {"out": out, "report": report, "truth": truth, "frames": report["frames"]}


def _load_frames(in_dir: Path, shape: tuple[int, int]):
    """Read the frame index and its channel rasters, each of the camera's
    (height, width)."""
    idx_path = in_dir / "frames" / "frames.json"
    if not idx_path.exists():
        raise DataError(f"missing frame index: {idx_path}")
    try:
        index = json.loads(idx_path.read_text())
        entries = [(dict(e["pattern"]), {n: in_dir / e["files"][n] for n in CHANNEL_NAMES})
                   for e in index]
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"{idx_path}: malformed frame index: {e!r}") from e
    if not all({"kind", "step"} <= pattern.keys() for pattern, _ in entries):
        raise DataError(f"{idx_path}: a frame pattern lacks its kind or step")
    frames = []
    for pattern, paths in entries:
        chans = {}
        for name, p in paths.items():
            if not p.exists():
                raise DataError(f"missing frame raster: {p}")
            chans[name] = read_pfm(p)
            if chans[name].shape != shape:
                raise DataError(f"{p}: raster shape {chans[name].shape} differs from "
                                f"the manifest camera {shape}")
            if not np.isfinite(chans[name]).all():
                raise DataError(f"{p}: raster holds NaN or inf samples")
        frames.append({"pattern": pattern, "channels": chans})
    return frames


def _s0(channels: dict) -> np.ndarray:
    return sum(channels[n] for n in CHANNEL_NAMES) / 2.0


def _group(frames, **match):
    sel = [
        f for f in frames if all(f["pattern"].get(k) == v for k, v in match.items())
    ]
    return sorted(sel, key=lambda f: f["pattern"]["step"])


def _decode_axis_multishot(frames, axis: str, spec) -> tuple:
    low = _group(frames, kind="phase-shift", axis=axis, frequency=FREQ_LOW, role="code")
    high = _group(frames, kind="phase-shift", axis=axis, frequency=spec.freq, role="code")
    if len(low) != spec.steps or len(high) != spec.steps:
        raise DataError(
            f"axis {axis!r}: expected {spec.steps} frames at frequencies "
            f"{FREQ_LOW} and {spec.freq}, found {len(low)}/{len(high)}"
        )
    ph_low, _, v_low = decode_phase_shift(
        [_s0(f["channels"]) for f in low], spec.steps, MODULATION_THRESHOLD)
    ph_high, _, v_high = decode_phase_shift(
        [_s0(f["channels"]) for f in high], spec.steps, MODULATION_THRESHOLD)
    absolute, v_unwrap, residual = unwrap_two_frequency(ph_low, ph_high, spec.freq)
    return absolute, v_low & v_high & v_unwrap, residual


def _decode_prior(frames, axis: str, spec):
    prior = _group(frames, kind="phase-shift", axis=axis, frequency=FREQ_LOW, role="prior")
    if len(prior) != spec.steps:
        raise DataError(f"axis {axis!r}: missing low-frequency prior frames")
    ph, _, valid = decode_phase_shift(
        [_s0(f["channels"]) for f in prior], spec.steps, MODULATION_THRESHOLD)
    return ph, valid


def _decode_single_shot(frames, spec):
    cross = [f for f in frames if f["pattern"]["kind"] == "cross-sinusoid"]
    if len(cross) != 1:
        raise DataError("single-shot decode needs exactly one cross-sinusoid frame")
    channels = cross[0]["channels"]
    img = _s0(channels)
    mask = img > DARK_THRESHOLD

    # Predict the cross-frame phase per pixel from the low-frequency prior
    # so the Fourier demodulation can follow the surface's space-variant
    # carrier instead of assuming a fixed one.
    reference = {}
    priors = {}
    for axis, f_c in (("u", spec.f_u), ("v", spec.f_v)):
        ph_low, v_low = _decode_prior(frames, axis, spec)
        priors[axis] = (ph_low, v_low)
        if not np.any(mask & v_low):
            raise DataError("prior phase has no valid pixels")
        reference[axis] = f_c * ph_low
        mask = mask & v_low

    demod = decode_fourier_single_shot(
        img, reference, valid_mask=mask, amplitude_threshold=MODULATION_THRESHOLD)
    out = {}
    for axis, f_c in (("u", spec.f_u), ("v", spec.f_v)):
        ph_low, v_low = priors[axis]
        absolute, v_unwrap, residual = unwrap_two_frequency(
            ph_low, demod[axis]["phase"], f_c
        )
        out[axis] = (absolute, demod[axis]["valid"] & v_low & v_unwrap, residual)
    return out, channels


def reconstruct(in_dir, mode: str, out_dir=None, *, strict_dop: bool = False,
                dop_model: str | None = None,
                with_baseline: bool = False) -> dict:
    """Decode stacks from a simulate directory and fuse them into a
    SurfaceSolution on disk. mode: 'multi' | 'single'."""
    in_dir = Path(in_dir)
    if not (in_dir / "manifest.json").exists():
        raise DataError(f"missing input manifest: {in_dir / 'manifest.json'}")
    doc = load_manifest(in_dir / "manifest.json")
    scene = validate_manifest(doc)
    spec = scene.pattern
    if mode == "multi" and spec.kind != "phase-shift":
        raise DataError("multi-shot mode requires phase-shift frames")
    if mode == "single" and spec.kind != "cross-sinusoid":
        raise DataError("single-shot mode requires a cross-sinusoid frame")
    out = Path(out_dir) if out_dir else in_dir / "solution"
    out.mkdir(parents=True, exist_ok=True)
    record = RunRecord("reconstruct", manifest_hash(doc), __version__)

    frames = _load_frames(in_dir, (scene.camera.height, scene.camera.width))
    record.stage("load")

    if mode == "multi":
        # Average (not sum) so the dark threshold stays in per-frame units.
        total = {n: sum(f["channels"][n] for f in frames) / len(frames)
                 for n in CHANNEL_NAMES}
        abs_u, val_u, res_u = _decode_axis_multishot(frames, "u", spec)
        abs_v, val_v, res_v = _decode_axis_multishot(frames, "v", spec)
        freq_u = freq_v = spec.freq
    else:
        decoded, cross_channels = _decode_single_shot(frames, spec)
        total = cross_channels
        abs_u, val_u, res_u = decoded["u"]
        abs_v, val_v, res_v = decoded["v"]
        freq_u, freq_v = spec.f_u, spec.f_v

    stokes = stokes_from_quad(*(total[n] for n in CHANNEL_NAMES),
                              dark_threshold=DARK_THRESHOLD)
    corr = phase_to_display_coords(
        abs_u, abs_v, freq_u, freq_v, scene.display,
        valid=val_u & val_v, residual=np.maximum(res_u, res_v),
    )
    record.stage("decode")

    # Inversion model: explicit request wins, else match the synthesis
    # model of the scene (the 'exact' Fresnel curve is unimodal too, so
    # invert_dop brackets its two branches like eq5 and eq6). The DoP is
    # inverted once, in fuse_map, on the measurable pixels only; the
    # baseline reuses its candidates, so it has normals on those pixels
    # alone.
    model = dop_model or scene.dop_model
    solution, stats = fuse_map(
        stokes, corr, scene.camera, scene.display, scene.interval, scene.material,
        dop_model=model, strict_dop=strict_dop,
    )
    record.stage("fuse")
    counts = stats["counts"]
    if not any(counts[k] for k in ("ok", "both_feasible", "saturated_dop")):
        raise DataError(f"{in_dir}: no pixel has a depth (status counts {counts})")

    export_geometry(solution, out)
    write_pfm(out / "dop.pfm", stokes.dop)
    write_sidecar(out / "dop.pfm", {"kind": "degree of polarization"})
    write_pfm(out / "aolp.pfm", stokes.aolp)
    write_sidecar(out / "aolp.pfm", {"kind": "angle of linear polarization", "units": "rad"})
    ij3 = np.stack([corr.i, corr.j, corr.valid.astype(np.float64)], axis=-1)
    write_pfm(out / "display_ij.pfm", ij3)
    write_sidecar(out / "display_ij.pfm",
                  {"kind": "decoded display coords", "channels": ["i", "j", "valid"],
                   "frequency": [freq_u, freq_v]})
    stats["mode"] = mode
    stats["dop_model"] = model
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True))

    baseline = None
    if with_baseline:
        truth_n = None
        tn_path = in_dir / "truth" / "normal.pfm"
        if tn_path.exists():
            truth_n = read_pfm(tn_path)
        baseline = orthographic_baseline(
            stokes, solution.candidates, scene.camera, truth_normals=truth_n
        )
        if baseline.best is not None:
            write_pfm(out / "orthographic_best.pfm", _nan_to(baseline.best))
            write_sidecar(out / "orthographic_best.pfm",
                          {"kind": "best-case orthographic SfP normals; "
                                   "0 where the pixel is not measurable"})
    record.stage("export")
    record.inventory(out)
    record.write(out / "run_record_reconstruct.json")
    return {"out": out, "solution": solution, "stats": stats, "stokes": stokes,
            "corr": corr, "scene": scene, "baseline": baseline}


def evaluate(solution_dir, truth_dir, out_dir=None) -> dict:
    """Compare a solution directory with a ground-truth directory."""
    sol = Path(solution_dir)
    tru = Path(truth_dir)
    out = Path(out_dir) if out_dir else sol
    for p in (sol / "depth.pfm", sol / "normal.pfm", sol / "status.pfm",
              tru / "depth.pfm", tru / "normal.pfm", tru / "mask.pfm"):
        if not p.exists():
            raise DataError(f"missing input: {p}")
    scene = validate_manifest(load_manifest(tru.parent / "manifest.json"))

    est_depth = read_pfm(sol / "depth.pfm")
    est_norm = read_pfm(sol / "normal.pfm")
    status = read_pfm(sol / "status.pfm").astype(np.int16)
    tr_depth = read_pfm(tru / "depth.pfm")
    tr_norm = read_pfm(tru / "normal.pfm")
    tr_mask = read_pfm(tru / "mask.pfm") > 0.5
    if est_depth.shape != tr_depth.shape:
        raise DataError("solution and truth dimensions do not match")

    mask = (status == int(Status.OK)) & tr_mask
    rays = scene.camera.ray_grid()
    points = scene.camera.center + est_depth[..., None] * rays
    true_radius = scene.surface.radius if isinstance(scene.surface, Sphere) else None
    counts = {s.name.lower(): int(np.sum(status == s)) for s in Status}
    if not mask.any():
        raise DataError(f"{sol}: no OK pixel to evaluate (status counts {counts})")
    report = evaluate_maps(
        est_norm, est_depth, points, tr_norm, tr_depth, mask, scene.camera,
        status_counts=counts, true_radius=true_radius,
    )
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    err = np.where(
        mask,
        np.degrees(np.arccos(np.clip(np.sum(est_norm * tr_norm, axis=-1), -1, 1))),
        0.0,
    )
    write_pfm(out / "err_normal_deg.pfm", err)
    write_sidecar(out / "err_normal_deg.pfm", {"kind": "normal angular error", "units": "deg"})
    write_pfm(out / "err_depth.pfm", np.where(mask, est_depth - tr_depth, 0.0))
    write_sidecar(out / "err_depth.pfm", {"kind": "depth error", "units": "mm"})
    return {"report": report, "mask": mask}


def reproduce(out_root, size: int = 512, heightfield_size: int = 192) -> dict:
    """Run the full reference experiment set and emit a summary table.

    Bearing ball multi-shot (noiseless and 0.5% noise), single-shot,
    orthographic-baseline contrast, and two qualitative free-form
    heightfields. Reference values reported by the original measurement
    (0.6 deg normal RMSE, 70 um radius error on a 25.4 mm ball) are
    annotated next to the simulated results.
    """
    from .manifest import bearing_ball_manifest, qualitative_heightfield_manifest
    from .metrics import field_angle_error_profile, normal_rmse

    root = Path(out_root)
    root.mkdir(parents=True, exist_ok=True)
    rows = []

    def run_case(name, doc, mode, with_baseline=False):
        case = root / name
        simulate(doc, case)
        rec = reconstruct(case, mode, with_baseline=with_baseline)
        ev = evaluate(case / "solution", case / "truth")
        return case, rec, ev

    # 1. multi-shot, noiseless
    case, rec, ev = run_case(
        "ball_multi_noiseless", bearing_ball_manifest(size=size), "multi", with_baseline=True
    )
    r = ev["report"]
    rows.append(("bearing ball, multi-shot, noiseless",
                 f"{r.normal_rmse_deg:.4f} deg", f"{r.radius_error_um:.1f} um"))

    # orthographic contrast on the same scene
    truth_n = read_pfm(case / "truth" / "normal.pfm")
    mask = ev["mask"] & rec["baseline"].valid
    prof_orth = field_angle_error_profile(rec["baseline"].best, truth_n, rec["scene"].camera, mask)
    prof_fused = field_angle_error_profile(
        read_pfm(case / "solution" / "normal.pfm"), truth_n, rec["scene"].camera, mask
    )
    orth_rmse = normal_rmse(rec["baseline"].best, truth_n, mask)[0]
    rows.append(("orthographic SfP baseline (best case), same scene",
                 f"{orth_rmse:.2f} deg", "-"))

    # 2. multi-shot with 0.5% noise; the exact Fresnel curve (synthesis and
    # inversion alike) is the noise-robust model choice
    _, _, ev_n = run_case(
        "ball_multi_noise",
        bearing_ball_manifest(size=size, sigma=0.005, seed=7, dop_model="exact"),
        "multi",
    )
    rn = ev_n["report"]
    rows.append(("bearing ball, multi-shot, sigma=0.5%",
                 f"{rn.normal_rmse_deg:.3f} deg (reference: 0.6 deg)",
                 f"{rn.radius_error_um:.1f} um (reference: 70 um)"))

    # 3. single-shot cross-sinusoid, noiseless
    _, _, ev_s = run_case(
        "ball_single_noiseless", bearing_ball_manifest(size=size, mode="single"), "single"
    )
    rs = ev_s["report"]
    # the guard-trimmed single-shot patch is too small to constrain a
    # sphere fit, so report depth accuracy instead of radius
    rows.append(("bearing ball, single-shot cross-sinusoid",
                 f"{rs.normal_rmse_deg:.3f} deg", f"depth RMSE {rs.depth_rmse_mm:.3f} mm"))

    # qualitative free-form stand-ins
    for name in ("horse", "bird"):
        _, _, ev_q = run_case(
            f"qualitative_{name}",
            qualitative_heightfield_manifest(name, size=heightfield_size),
            "multi",
        )
        rq = ev_q["report"]
        rows.append((f"free-form stand-in '{name}' (qualitative)",
                     f"{rq.normal_rmse_deg:.3f} deg", f"ok={rq.status_counts['ok']}"))

    summary = {
        "rows": [{"case": c, "normal": n, "shape": s} for c, n, s in rows],
        "reference_measurement": {"normal_rmse_deg": 0.6, "radius_error_um": 70.0,
                                  "ball_diameter_mm": 25.4},
        "orthographic_profile": prof_orth,
        "fused_profile": prof_fused,
    }
    (root / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    width = max(len(c) for c, _, _ in rows)
    lines = [f"{c:<{width}}  {n:>34}  {s}" for c, n, s in rows]
    table = "\n".join(lines)
    (root / "summary.txt").write_text(table + "\n")
    return {"rows": rows, "summary": summary, "table": table}
