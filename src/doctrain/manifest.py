"""Run manifests: resolved config, input/output digests, and timings for
every CLI invocation, plus replay support."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from .errors import DataError, ParseError, StorageError

MANIFEST_VERSION = 1


def file_digest(path) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise StorageError(f"cannot digest {path}: {exc}") from exc


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    output_digests: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "subcommand": self.subcommand,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "output_digests": self.output_digests,
            "timings": self.timings,
        }


def write_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> RunManifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise StorageError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest {path} is not valid JSON: {exc}") from exc
    missing = [k for k in ("subcommand", "config") if k not in raw]
    if missing:
        raise ParseError(f"manifest {path} lacks fields {missing}")
    return RunManifest(
        subcommand=raw["subcommand"],
        config=dict(raw["config"]),
        inputs=dict(raw.get("inputs", {})),
        outputs=list(raw.get("outputs", [])),
        output_digests=dict(raw.get("output_digests", {})),
        timings=dict(raw.get("timings", {})),
        version=int(raw.get("version", MANIFEST_VERSION)),
    )


def argv_from_manifest(manifest: RunManifest) -> list[str]:
    """Rebuild the CLI invocation from a manifest's resolved config.

    Subcommands take options only (no positionals), so the mapping is
    mechanical: key -> --key-with-hyphens. Booleans are store_true flags,
    sequences are space-separated nargs values, None means flag omitted.
    """
    argv = [manifest.subcommand]
    for key in sorted(manifest.config):
        value = manifest.config[key]
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, (list, tuple)):
            argv.append(flag)
            argv.extend(str(v) for v in value)
        else:
            argv.extend([flag, str(value)])
    return argv


def verify_replay(recorded: RunManifest, fresh: RunManifest) -> None:
    """Digest-check a rerun against the manifest it was replayed from."""
    if fresh.output_digests != recorded.output_digests:
        changed = sorted(
            set(fresh.output_digests) ^ set(recorded.output_digests)
            | {k for k in fresh.output_digests
               if recorded.output_digests.get(k) not in (None, fresh.output_digests[k])}
        )
        raise DataError(f"replay changed outputs: {changed}")


class RunRecorder:
    """Collects inputs, outputs and phase timings while a subcommand runs."""

    def __init__(self, subcommand: str, config: dict):
        self.manifest = RunManifest(subcommand=subcommand, config=config)
        self._t0 = time.monotonic()
        self._phase_start = self._t0
        self.created: list[str] = []  # files written so far, for cleanup

    def add_input(self, path) -> None:
        self.manifest.inputs[str(path)] = file_digest(path)

    def add_output(self, path) -> None:
        p = str(path)
        if p not in self.manifest.outputs:
            self.manifest.outputs.append(p)
            self.created.append(p)

    def phase(self, name: str) -> None:
        now = time.monotonic()
        self.manifest.timings[name] = round(now - self._phase_start, 6)
        self._phase_start = now

    def finish(self) -> RunManifest:
        for p in self.manifest.outputs:
            self.manifest.output_digests[p] = file_digest(p)
        self.manifest.timings["wall_total"] = round(
            time.monotonic() - self._t0, 6)
        return self.manifest
