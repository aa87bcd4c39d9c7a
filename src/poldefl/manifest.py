"""Scene manifests: the single JSON document describing a simulated
measurement (camera, display, working interval, surface, material,
pattern, noise, render options), parsed into a Scene before any run by
`validate_manifest`, against one field table per block.

The default bearing-ball scene is an invented desk-scale stand-in for the
physical rig: the display hangs above the camera facing down at the ball,
which keeps the incidence angles in the well-conditioned range of the
metal DoP curve while the ball still spans a >15 deg half field of view.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import PatternSpec
from .geometry import DisplayPlane, PinholeCamera, WorkingDistanceInterval
from .polarization import MATERIAL_PRESETS, MaterialOpticalProperties
from .simulator import HeightField, NoiseModel, Plane, Scene, Sphere


class ManifestError(ValueError):
    """A manifest field is missing, malformed or inconsistent."""


# Readers: each takes a JSON value and its path, and returns the parsed
# value or raises ManifestError naming the path.
def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError(f"{path}: must be a number")
    # NaN fails both comparisons; so do +-inf and integers past the float range
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ManifestError(f"{path}: must be finite")
    return float(value)


def _integer(value, path) -> int:
    # numpy takes integers (the noise seed among them) as int64
    if not _number(value, path).is_integer() or abs(value) >= 2**63:
        raise ManifestError(f"{path}: must be an integer of at most 63 bits")
    return int(value)


def _is(kind, noun):
    def read(value, path):
        if not isinstance(value, kind):
            raise ManifestError(f"{path}: must be {noun}")
        return value
    return read


def _one_of(*options):
    def read(value, path):
        # JSON's true and false are not 1 and 0; 8.0 reads as the option 8
        if isinstance(value, bool) or value not in options:
            raise ManifestError(f"{path}: must be one of {list(options)}")
        return options[options.index(value)]
    return read


def _array(*shape):
    """Reader of nested lists of finite numbers; a None length is any >= 1."""
    def read(value, path):
        n = shape[0]
        if not isinstance(value, list) or not value or n not in (None, len(value)):
            raise ManifestError(f"{path}: must be a list of {n or 'one or more'} items")
        item = _array(*shape[1:]) if len(shape) > 1 else _number
        rows = [item(x, f"{path}[{i}]") for i, x in enumerate(value)]
        if len({np.shape(row) for row in rows}) > 1:
            raise ManifestError(f"{path}: rows must all have the same length")
        return np.array(rows)
    return read


_bool, _string, _object = _is(bool, "true or false"), _is(str, "a string"), _is(dict, "an object")
_vec3, _matrix3, _grid = _array(3), _array(3, 3), _array(None, None)


def _axes(value, path) -> tuple:
    """Both display axes, each once: the decode needs a u and a v phase."""
    axis = _one_of("u", "v")
    axes = tuple(axis(a, f"{path}[{i}]") for i, a in enumerate(_is(list, "a list")(value, path)))
    if sorted(axes) != ["u", "v"]:
        raise ManifestError(f'{path}: must hold "u" and "v" once each')
    return axes


def _fields(doc, table: dict, path: str) -> dict:
    """Read a JSON object against a field table: the parsed value of each
    field present, keyed by name."""
    for key in _object(doc, path):
        if key not in table:
            raise ManifestError(f"{path}.{key}: unknown key")
    out = {}
    for name, (read, required, bound) in table.items():
        where = f"{path}.{name}"
        if name in doc:
            value = out[name] = read(doc[name], where)
            if bound and not (value > bound[1] if bound[0] == ">" else value >= bound[1]):
                raise ManifestError(f"{where}: must be {bound[0]} {bound[1]}")
            if bound and bound[2:] and value > bound[2]:
                raise ManifestError(f"{where}: must be <= {bound[2]}")
        elif required:
            raise ManifestError(f"{where}: required")
    return out


def _block(cls, table: dict):
    """Reader of a block that builds cls from its fields. A cross-field
    rule that the constructor enforces is re-raised at the block's path."""
    def read(doc, path):
        kwargs = _fields(doc, table, path)
        try:
            return cls(**kwargs)
        except ValueError as e:
            raise ManifestError(f"{path}: {e}") from None
    return read


# Upper bounds on sizes, so that no manifest makes simulate allocate
# without end. 2448x2048 and 4096x3000 polarization sensors and an 8K
# display (7680x4320) fit, and one float64 raster stays <= 512 MB. Phase
# noise falls only as 1/sqrt(steps) while each step adds four frames (two
# axes, two frequencies); 32 is four times the built-in 8.
MAX_SENSOR_SIDE = 8192
MAX_DISPLAY_SIDE = 8192
MAX_PHASE_STEPS = 32

# Field tables, one per block: name -> (reader, required, bound), where
# bound is (">", x) or (">=", x) on a number, optionally with an upper
# limit as a third item: (">=", x, y) also requires <= y. An absent
# optional field takes the default of the dataclass that its block builds.
CAMERA = {
    "fx": (_number, True, (">", 0)),
    "fy": (_number, True, (">", 0)),
    "cx": (_number, True, None),
    "cy": (_number, True, None),
    "width": (_integer, True, (">=", 1, MAX_SENSOR_SIDE)),
    "height": (_integer, True, (">=", 1, MAX_SENSOR_SIDE)),
    "rotation": (_matrix3, False, None),
    "translation": (_vec3, False, None),
}
DISPLAY = {
    "origin": (_vec3, True, None),
    "u": (_vec3, True, None),
    "v": (_vec3, True, None),
    "pitch": (_number, True, (">", 0)),
    "width": (_integer, True, (">=", 1, MAX_DISPLAY_SIDE)),
    "height": (_integer, True, (">=", 1, MAX_DISPLAY_SIDE)),
}
WORKING_DISTANCE = {
    "s_min": (_number, True, (">", 0)),
    "s_max": (_number, True, (">", 0)),
}
PATTERN = {
    "kind": (_one_of("phase-shift", "cross-sinusoid"), False, None),
    "axes": (_axes, False, None),
    "steps": (_integer, False, (">=", 3, MAX_PHASE_STEPS)),
    "freq": (_number, False, (">", 0)),
    "f_u": (_number, False, (">", 0)),
    "f_v": (_number, False, (">", 0)),
    "mean": (_number, False, None),
    "depth": (_number, False, None),
}
NOISE = {
    "sigma": (_number, False, (">=", 0)),
    "photon": (_bool, False, None),
    "bits": (_one_of(0, 8, 10, 12, 16), False, None),
    "seed": (_integer, False, (">=", 0)),
}
RENDER = {
    "dop_model": (_one_of("eq5", "eq6", "exact"), False, None),
}
MATERIAL = {
    "m": (_number, True, (">", 1)),
    "kappa": (_number, False, (">=", 0)),
}
SURFACES = {
    "sphere": _block(Sphere, {
        "center": (_vec3, True, None),
        "radius": (_number, True, (">", 0)),
    }),
    "plane": _block(Plane, {
        "point": (_vec3, True, None),
        "normal": (_vec3, True, None),
    }),
    "heightfield": _block(HeightField, {
        "x0": (_number, True, None),
        "y0": (_number, True, None),
        "dx": (_number, True, (">", 0)),
        "dy": (_number, True, (">", 0)),
        "z_grid": (_grid, True, None),
    }),
}


def _surface(doc, path):
    """The surface block: its kind picks the table of the other fields."""
    if "kind" not in _object(doc, path):
        raise ManifestError(f"{path}.kind: required")
    read = SURFACES[_one_of(*SURFACES)(doc["kind"], f"{path}.kind")]
    return read({k: v for k, v in doc.items() if k != "kind"}, path)


def material_from(doc, path: str = "$.material") -> MaterialOpticalProperties:
    """A preset name, or an inline {"m", "kappa"} complex index."""
    if not isinstance(doc, str):
        return _block(MaterialOpticalProperties, MATERIAL)(doc, path)
    if doc not in MATERIAL_PRESETS:
        raise ManifestError(f"{path}: unknown material preset {doc!r}; "
                            f"known: {sorted(MATERIAL_PRESETS)}")
    return MATERIAL_PRESETS[doc]


MANIFEST = {
    "comment": (_string, False, None),
    "units": (_string, False, None),
    "output_dir": (_string, False, None),
    "camera": (_block(PinholeCamera, CAMERA), True, None),
    "display": (_block(DisplayPlane, DISPLAY), True, None),
    "working_distance": (_block(WorkingDistanceInterval, WORKING_DISTANCE), True, None),
    "surface": (_surface, True, None),
    "material": (material_from, True, None),
    "pattern": (_block(PatternSpec, PATTERN), False, None),
    "noise": (_block(NoiseModel, NOISE), False, None),
    "render": (_block(dict, RENDER), False, None),  # Scene's own fields
}


def validate_manifest(doc) -> Scene:
    """Parse a manifest document into the Scene it describes.

    Raises ManifestError naming the JSON path of the first fault: a
    missing or unknown key, a value of the wrong type, a non-finite or
    out-of-bound number, or a block that its constructor rejects.
    """
    top = _fields(doc, MANIFEST, "$")
    blocks = ("camera", "display", "surface", "material", "pattern", "noise")
    return Scene(interval=top["working_distance"], **{k: top[k] for k in blocks if k in top},
                 **top.get("render", {}))


def load_manifest(path) -> dict:
    """Decode a manifest file; validate_manifest checks what it holds."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as e:
        raise ManifestError(f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise ManifestError("$: must be an object")
    return doc


# ---------------------------------------------------------------------------
# Built-in scenes


def _desk_rig(size: int, display_y: float) -> dict:
    """The blocks the built-in scenes share: a size x size camera at the
    origin looking +z and an 800x600 display overhead, facing down."""
    return {
        "units": "mm",
        "camera": {
            "fx": 1.855 * size,
            "fy": 1.855 * size,
            "cx": size / 2 - 0.5,
            "cy": size / 2 - 0.5,
            "width": size,
            "height": size,
        },
        "display": {
            "origin": [-100.0, display_y, -20.0],
            "u": [1.0, 0.0, 0.0],
            "v": [0.0, 0.0, 1.0],
            "pitch": 0.25,
            "width": 800,
            "height": 600,
        },
        "working_distance": {"s_min": 25.0, "s_max": 200.0},
    }


def bearing_ball_manifest(
    size: int = 512,
    sigma: float = 0.0,
    seed: int = 0,
    mode: str = "multi",
    dop_model: str = "eq6",
) -> dict:
    """Desk-scale bearing-ball scene: 25.4 mm ball, steel preset.

    Camera at the origin looking +z, ball centred 48 mm out (so its rim
    reaches ~15.3 deg field angle), display overhead facing down. The
    measurable patch is the upper-front crescent of the ball where the
    incidence angle stays in the sensitive range of the metal DoP curve.
    """
    pattern = (
        {"kind": "phase-shift", "axes": ["u", "v"], "steps": 8, "freq": 16.0}
        if mode == "multi"
        else {"kind": "cross-sinusoid", "axes": ["u", "v"], "steps": 4, "f_u": 32.0, "f_v": 32.0}
    )
    pattern.update({"mean": 0.7, "depth": 0.25})
    return {
        "comment": "invented desk-scale stand-in for the physical rig",
        **_desk_rig(size, display_y=60.0),
        "surface": {"kind": "sphere", "center": [0.0, 0.0, 48.0], "radius": 12.7},
        "material": "bearing-ball-steel",
        "pattern": pattern,
        "noise": {"sigma": sigma, "seed": seed},
        "render": {"dop_model": dop_model},
    }


def qualitative_heightfield_manifest(name: str = "horse", size: int = 256, seed: int = 0) -> dict:
    """Procedural bumpy heightfield stand-ins for free-form test objects
    (chrome coated). Labeled qualitative: no metric ground truth claim
    beyond the simulator itself."""
    key = int(hashlib.sha256(name.encode()).hexdigest()[:15], 16)
    rng = np.random.Generator(np.random.Philox(key=key))
    n = 48
    x = np.linspace(-1, 1, n)
    xx, yy = np.meshgrid(x, x)
    z = np.zeros_like(xx)
    for fx_, fy_, a in [(1, 1, 1.2), (2, 3, 0.5), (5, 4, 0.2), (8, 7, 0.08)]:
        z += a * np.sin(fx_ * np.pi * xx + rng.uniform(0, 2 * np.pi)) * np.sin(
            fy_ * np.pi * yy + rng.uniform(0, 2 * np.pi)
        )
    # Tilt the sheet ~45 deg about x so the mean normal bisects the camera
    # direction and the overhead display; bumps modulate around that.
    z = 46.0 + 14.0 * yy + 1.2 * z / np.max(np.abs(z))
    return {
        "comment": f"qualitative procedural stand-in object '{name}'",
        **_desk_rig(size, display_y=85.0),
        "surface": {
            "kind": "heightfield",
            "x0": -14.0,
            "y0": -14.0,
            "dx": 28.0 / (n - 1),
            "dy": 28.0 / (n - 1),
            "z_grid": z.tolist(),
        },
        "material": "chrome",
        "pattern": {
            "kind": "phase-shift",
            "axes": ["u", "v"],
            "steps": 4,
            "freq": 16.0,
            "mean": 0.7,
            "depth": 0.25,
        },
        "noise": {"sigma": 0.0, "seed": seed},
        "render": {"dop_model": "eq6"},
    }


# ---------------------------------------------------------------------------
# Run records


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunRecord:
    """Provenance of one command run: manifest hash, toolkit version,
    stage timings, and a digest inventory of every output file."""

    command: str
    manifest_sha256: str
    version: str
    timings: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def stage(self, name: str):
        now = time.perf_counter()
        self.timings[name] = round(now - self._t0, 6)
        self._t0 = now

    def inventory(self, out_dir, exclude=("run_record",)):
        out_dir = Path(out_dir)
        for p in sorted(out_dir.rglob("*")):
            if p.is_file() and not any(x in p.name for x in exclude):
                self.outputs[str(p.relative_to(out_dir))] = sha256_file(p)

    def write(self, path):
        doc = {
            "command": self.command,
            "manifest_sha256": self.manifest_sha256,
            "version": self.version,
            "timings_s": self.timings,
            "outputs": self.outputs,
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def manifest_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
