"""Experiment configuration: a flat, diffable key=value document with sections.

``ExperimentConfig`` is the one record of a run's settings; synthesis,
training and evaluation all read it. Unknown sections or keys are rejected,
and so is any value the program cannot run; serialization round-trips
losslessly (floats via repr, everything in fixed order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model import DEFAULT_REGIME, REGIMES
from .scenes import coarse_lattice, dataset_presets, default_scene_spec, eval_intersection, taxonomy_preset


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # [run]
    seed: int = 42
    out: str = "out"
    # [data]
    taxonomy: str = "split"
    scenes: int = 12
    eval_scenes: int = 6
    boxes: int = 10
    pillars: int = 6
    walls: int = 3
    blobs: int = 6
    posts: int = 6
    # [train]
    regime: str = DEFAULT_REGIME
    epochs: int = 40
    pretrain_epochs: int = 20
    batch_size: int = 4
    lr: float = 0.05
    hidden: int = 8
    stride: int = 2
    # [labels]
    lam: float = 0.05
    tau: float = 0.1
    # [eval]
    eta: int = 1
    cross: bool = False

    def __post_init__(self):
        if min(self.scenes, self.eval_scenes, self.pretrain_epochs) < 0:
            raise ConfigError("scenes, eval_scenes and pretrain_epochs must be >= 0")
        if self.eta < 1:
            raise ConfigError("eta must be >= 1")
        if self.regime not in REGIMES:
            raise ConfigError(f"regime must be one of {', '.join(REGIMES)}, got {self.regime!r}")
        if min(self.epochs, self.batch_size, self.hidden, self.stride) < 1:
            raise ConfigError("epochs, batch_size, hidden and stride must be >= 1")
        if math.isnan(self.lam) or math.isnan(self.tau):
            raise ConfigError("lambda and tau must be numbers, got nan")
        try:
            specs = dataset_presets(taxonomy_preset(self.taxonomy))
            default_scene_spec(0, **self.scene_counts)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        # each regime trains on every dataset's gt range or on their intersection
        try:
            for spec in specs.values():
                for crop in (None, eval_intersection(specs)):
                    coarse_lattice(spec, crop, self.stride)
        except ValueError as e:
            raise ConfigError(f"stride {self.stride}: {e}") from None

    @property
    def scene_counts(self):
        """[data] archetype counts as ``SceneSpec`` keywords."""
        return {"n_boxes": self.boxes, "n_pillars": self.pillars, "n_walls": self.walls,
                "n_blobs": self.blobs, "n_posts": self.posts}


# section -> ordered keys; key -> dataclass field name where they differ
_SCHEMA = {
    "run": ("seed", "out"),
    "data": ("taxonomy", "scenes", "eval_scenes", "boxes", "pillars", "walls", "blobs", "posts"),
    "train": ("regime", "epochs", "pretrain_epochs", "batch_size", "lr", "hidden", "stride"),
    "labels": ("lambda", "tau"),
    "eval": ("eta", "cross"),
}
_ALIASES = {"lambda": "lam"}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _field_name(key):
    return _ALIASES.get(key, key)


def _parse_value(field_name, raw, where):
    kind = _FIELD_TYPES[field_name]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from None


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text):
    """Parse the sectioned key=value document into an ExperimentConfig."""
    values = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        name = _field_name(key)
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[name] = _parse_value(name, raw, f"line {lineno}")
    return ExperimentConfig(**values)


def render_config(config):
    """Serialize in fixed section/key order; parse(render(c)) == c."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_format_value(getattr(config, _field_name(key)))}")
        lines.append("")
    return "\n".join(lines)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
