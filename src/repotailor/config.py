"""Run configuration: one JSON file drives every pipeline stage.

Caps and CrystalBLEU knobs default to the full-scale values declared on
their dataclasses; fixture-scale runs override them in the config file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .storage import dumps_canonical, read_json, sha256_text


def _field_values(obj: object) -> dict:
    # a shallow dataclasses.asdict: asdict deep-copies every value, which
    # made config_hash(), called several times per stage, 3x slower
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True, slots=True)
class RepoSpec:
    path: str
    branch: str = "main"
    repo_id: str = ""

    def resolved_id(self) -> str:
        return self.repo_id or Path(self.path).name


@dataclass(frozen=True, slots=True)
class Caps:
    top_developers: int = 100
    contributor_pool: int = 1000
    methods_per_repo: int = 1500
    test_size: int = 500
    min_train: int = 1000


@dataclass(frozen=True, slots=True)
class CrystalBleuKnobs:
    k: int = 500
    max_order: int = 4


@dataclass(frozen=True, slots=True)
class RunConfig:
    organization: str
    repos: tuple[RepoSpec, ...]
    seed: int
    out_dir: str
    generic_repos: tuple[RepoSpec, ...] = ()
    caps: Caps = field(default_factory=Caps)
    crystal_bleu: CrystalBleuKnobs = field(default_factory=CrystalBleuKnobs)
    identity_overrides: str | None = None
    scenario_file: str | None = None

    def to_dict(self) -> dict:
        out = _field_values(self)
        out["caps"] = _field_values(self.caps)
        out["crystal_bleu"] = _field_values(self.crystal_bleu)
        for key in ("repos", "generic_repos"):
            out[key] = [
                {"path": r.path, "branch": r.branch, "repo_id": r.resolved_id()}
                for r in getattr(self, key)
            ]
        return out

    def config_hash(self) -> str:
        # the output directory does not affect content, only placement
        payload = self.to_dict()
        payload.pop("out_dir")
        return sha256_text(dumps_canonical(payload))[:16]


def _parse_repos(raw: object, what: str) -> tuple[RepoSpec, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError(f"{what} must be a list")
    specs = []
    for item in raw:
        if not isinstance(item, dict) or not isinstance(item.get("path"), str):
            raise ConfigError(f"each {what} entry needs a 'path' string")
        specs.append(RepoSpec(
            path=item["path"],
            branch=item.get("branch", "main"),
            repo_id=item.get("repo_id", ""),
        ))
    return tuple(specs)


def _positive_ints(cls: type, raw: object, what: str):
    """An instance of the knob dataclass ``cls`` from its config object:
    listed keys must be its fields and hold positive ints, unlisted
    fields keep their defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    for name, value in raw.items():
        if type(value) is not int or value < 1:
            raise ConfigError(f"{what}.{name} must be a positive integer, got {value!r}")
    return cls(**raw)


def load_config(path: str | Path, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Load and validate a run configuration; CLI flags may override."""
    try:
        data = read_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("organization", "repos", "seed", "out_dir"):
        if key not in data and not (key == "out_dir" and out_dir) and not (key == "seed" and seed is not None):
            raise ConfigError(f"config missing required key {key!r}")

    if seed is None:
        seed = data["seed"]
        if type(seed) is not int:  # bool is an int subclass; a JSON true is no seed
            raise ConfigError(f"seed must be an integer, got {seed!r}")
    config = RunConfig(
        organization=data["organization"],
        repos=_parse_repos(data["repos"], "repos"),
        generic_repos=_parse_repos(data.get("generic_repos"), "generic_repos"),
        seed=seed,
        out_dir=out_dir or data["out_dir"],
        caps=_positive_ints(Caps, data.get("caps", {}), "caps"),
        crystal_bleu=_positive_ints(
            CrystalBleuKnobs, data.get("crystal_bleu", {}), "crystal_bleu"
        ),
        identity_overrides=data.get("identity_overrides"),
        scenario_file=data.get("scenario_file"),
    )
    if not config.repos:
        raise ConfigError("config lists no repositories")
    ids = [r.resolved_id() for r in config.repos + config.generic_repos]
    if not all(ids):
        raise ConfigError("a repo path such as '.' or '/' has no name; give it a 'repo_id'")
    if len(set(ids)) != len(ids):
        raise ConfigError("repo ids must be unique across repos and generic_repos")
    return config
