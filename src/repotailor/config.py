"""Run configuration: one JSON file drives every pipeline stage.

Caps and CrystalBLEU knobs default to the full-scale values that the
modules using them declare; fixture-scale runs override them in the
config file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .assembly import DEFAULT_METHODS_PER_REPO, DEFAULT_MIN_TRAIN, DEFAULT_TEST_SIZE
from .errors import ConfigError
from .metrics import DEFAULT_MAX_ORDER, DEFAULT_TRIVIAL_K
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
    methods_per_repo: int = DEFAULT_METHODS_PER_REPO
    test_size: int = DEFAULT_TEST_SIZE
    min_train: int = DEFAULT_MIN_TRAIN


@dataclass(frozen=True, slots=True)
class CrystalBleuKnobs:
    k: int = DEFAULT_TRIVIAL_K
    max_order: int = DEFAULT_MAX_ORDER


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
        _reject_unknown(RepoSpec, item, f"{what} entry")
        spec = RepoSpec(**item)
        if not isinstance(spec.branch, str) or not isinstance(spec.repo_id, str):
            raise ConfigError(f"{what} entry {spec.path!r}: 'branch' and 'repo_id' must be strings")
        specs.append(spec)
    return tuple(specs)


def _reject_unknown(cls: type, raw: dict, what: str) -> None:
    """A ConfigError naming every key of ``raw`` that is no field of ``cls``."""
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")


def _positive_ints(cls: type, raw: object, what: str):
    """An instance of the knob dataclass ``cls`` from its config object:
    listed keys must be its fields and hold positive ints, unlisted
    fields keep their defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be an object")
    _reject_unknown(cls, raw, what)
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
    _reject_unknown(RunConfig, data, "config")
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
    for key, value in (("organization", config.organization), ("out_dir", config.out_dir)):
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{key} must be a non-empty string, got {value!r}")
    if not config.repos:
        raise ConfigError("config lists no repositories")
    ids = [r.resolved_id() for r in config.repos + config.generic_repos]
    if not all(ids):
        raise ConfigError("a repo path such as '.' or '/' has no name; give it a 'repo_id'")
    if len(set(ids)) != len(ids):
        raise ConfigError("repo ids must be unique across repos and generic_repos")
    # the generic side must hold no organization code
    org_paths = {Path(r.path).resolve() for r in config.repos}
    for spec in config.generic_repos:
        if Path(spec.path).resolve() in org_paths:
            raise ConfigError(f"generic_repos entry {spec.path!r} is also listed in repos")
    return config
