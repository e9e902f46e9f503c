"""Run manifests: resolved config, input/output digests, and timings for
every CLI invocation, plus replay support."""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

from .errors import (ConfigError, ContractError, DataError, ParseError,
                     StorageError)
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
    """Records one run's input digests, outputs and phase timings.

    Built before any work from every path the run reads and writes and its
    manifest path, it refuses (ConfigError) an output or the manifest that
    names an input, another output or each other, and any of these paths
    that is the staging name (`.partial`) or set-aside name (`.prev`) of an
    output or the manifest, which `commit` writes and removes. Then it
    digests the inputs.
    Outputs go to the staging files `staged` names; only `commit` moves them
    into place, so a failed run or a replay leaves every final path as it was.
    """

    def __init__(self, subcommand: str, config: dict, inputs: list[str],
                 outputs: list[str], manifest_path: str | None):
        self._t0 = self._phase_start = time.monotonic()
        self.manifest = RunManifest(subcommand, config, outputs=list(outputs))
        self.manifest_path = manifest_path
        self._finals = list(outputs)  # then the manifest, moved last
        if manifest_path is not None:
            self._finals.append(manifest_path)
        named = [("input", p) for p in inputs]
        for i, p in enumerate(self._finals):
            role = "output" if i < len(outputs) else "manifest"
            for other_role, other in named:
                if _same_file(p, other):
                    raise ConfigError(f"the {role} {p} is the same file as "
                                      f"the {other_role} {other}; give it a "
                                      f"path of its own")
            named.append((role, p))
        for role, p in named[len(inputs):]:
            for aside in (_staging(p), p + ".prev"):
                for other_role, other in named:
                    if _same_file(aside, other):
                        raise ConfigError(f"the {other_role} {other} is "
                                          f"{aside}, which the commit of the "
                                          f"{role} {p} writes; give it a path "
                                          f"of its own")
        self.manifest.inputs = {p: file_digest(p)
                                for p in dict.fromkeys(inputs)}

    def staged(self, path: str) -> str:
        """The staging file to write the declared output `path` to."""
        if path not in self.manifest.outputs:
            raise ContractError(f"{path} is not a declared output of this "
                                f"run")
        return _staging(path)

    def phase(self, name: str) -> None:
        now = time.monotonic()
        self.manifest.timings[name] = round(now - self._phase_start, 6)
        self._phase_start = now

    def finish(self) -> RunManifest:
        for p in self.manifest.outputs:
            self.manifest.output_digests[p] = file_digest(_staging(p))
        self.manifest.timings["wall_total"] = round(
            time.monotonic() - self._t0, 6)
        return self.manifest

    def commit(self) -> None:
        """Move the staged outputs into place, then the manifest last.

        All or nothing: each final path that exists is first hard-linked
        aside as `<path>.prev`. If any move fails, every path already moved
        gets its earlier file back, or is removed if it had none. Durable:
        each staged file is flushed before the first move, and each
        directory that received one after the last.
        """
        finals = self._finals
        write_json(_staging(self.manifest_path), asdict(self.manifest))
        for p in finals:
            _fsync(_staging(p))
        earlier = [p for p in finals if os.path.exists(p)]
        moved: list[str] = []
        try:
            for p in earlier:
                _remove_if_present(p + ".prev")  # left by a killed commit
                os.link(p, p + ".prev")
            for p in finals:
                os.replace(_staging(p), p)
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
        """Remove every staging file that `commit` did not move into place."""
        for p in self._finals:
            _remove_if_present(_staging(p))


def _staging(path: str) -> str:
    return path + ".partial"  # fixed, so the next run overwrites it


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
