"""Run manifests: resolved config, input/output digests, and timings for
every CLI invocation, plus replay support."""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

from .errors import ConfigError, DataError, ParseError, StorageError
from .records import write_json

MANIFEST_VERSION = 1
# the JSON type of each manifest field that load_manifest converts
_FIELD_KINDS = {"subcommand": str, "config": dict, "inputs": dict,
                "outputs": list, "output_digests": dict, "timings": dict,
                "version": int}


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


def load_manifest(path) -> RunManifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise StorageError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"manifest {path} is not a JSON object")
    missing = [k for k in ("subcommand", "config") if k not in raw]
    if missing:
        raise ParseError(f"manifest {path} lacks fields {missing}")
    malformed = [k for k, kind in _FIELD_KINDS.items()
                 if not isinstance(raw.get(k, kind()), kind)]
    if malformed:
        raise ParseError(f"manifest {path} has malformed fields {malformed}")
    return RunManifest(**{k: kind(raw[k]) for k, kind in _FIELD_KINDS.items()
                          if k in raw})


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
    new, old = fresh.output_digests, recorded.output_digests
    changed = sorted(k for k in new.keys() | old.keys()
                     if new.get(k) != old.get(k))
    if changed:
        raise DataError(f"replay changed outputs: {changed}")


class RunRecorder:
    """Collects inputs, outputs and phase timings while a subcommand runs.

    Outputs are written to staging files beside their final paths; only
    `commit` moves them into place, so a failed run or a replay, which never
    commits, leaves every final path as it was.
    """

    def __init__(self, subcommand: str, config: dict):
        self.manifest = RunManifest(subcommand=subcommand, config=config)
        self._t0 = time.monotonic()
        self._phase_start = self._t0
        self._staged: list[str] = []

    def add_input(self, path) -> None:
        self.manifest.inputs[str(path)] = file_digest(path)

    def _stage(self, path: str) -> str:
        staged = path + ".partial"  # fixed, so the next run overwrites it
        if staged not in self._staged:
            self._staged.append(staged)
        return staged

    def add_output(self, path) -> str:
        """Record `path` as an output; returns the path to write it to.

        A path that names a recorded input or an output added before is a
        ConfigError, raised before anything is written to it.
        """
        p = str(path)
        for other in [*self.manifest.inputs, *self.manifest.outputs]:
            if _same_file(p, other):
                role = "input" if other in self.manifest.inputs else "output"
                raise ConfigError(f"output {p} is the same file as the {role} "
                                  f"{other}; give it a path of its own")
        self.manifest.outputs.append(p)
        return self._stage(p)

    def phase(self, name: str) -> None:
        now = time.monotonic()
        self.manifest.timings[name] = round(now - self._phase_start, 6)
        self._phase_start = now

    def finish(self) -> RunManifest:
        for p in self.manifest.outputs:
            self.manifest.output_digests[p] = file_digest(self._stage(p))
        self.manifest.timings["wall_total"] = round(
            time.monotonic() - self._t0, 6)
        return self.manifest

    def commit(self, manifest_path) -> None:
        """Move the staged outputs into place, then the manifest last.

        All or nothing: each final path that exists is first hard-linked
        aside as `<path>.prev`. If any move fails, every path already moved
        gets its earlier file back, or is removed if it had none. Durable:
        each staged file is flushed before the first move, and each
        directory that received one after the last.
        """
        finals = [*self.manifest.outputs, str(manifest_path)]
        write_json(self._stage(finals[-1]), asdict(self.manifest))
        for p in finals:
            _fsync(self._stage(p))
        earlier = [p for p in finals if os.path.exists(p)]
        moved: list[str] = []
        try:
            for p in earlier:
                _remove_if_present(p + ".prev")  # left by a killed commit
                os.link(p, p + ".prev")
            for p in finals:
                os.replace(self._stage(p), p)
                moved.append(p)
        except BaseException:
            for p in moved:
                if p in earlier:
                    os.replace(p + ".prev", p)
                else:
                    os.remove(p)
            raise
        finally:
            for p in earlier:
                _remove_if_present(p + ".prev")
        for d in {os.path.dirname(os.path.abspath(p)) for p in finals}:
            _fsync(d)

    def discard(self) -> None:
        """Remove every staged file that `commit` did not move into place."""
        for staged in self._staged:
            _remove_if_present(staged)


def _same_file(a: str, b: str) -> bool:
    """Whether `a` and `b` name one file: the same path once links and
    relative parts are resolved, or, where both exist, one inode."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def _fsync(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _remove_if_present(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass
