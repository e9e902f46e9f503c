"""The one JSONL reader and the JSON/JSONL writers behind every record file.

Read policy: blank lines are skipped; every bad line is reported as
`line N: reason`, all in one ParseError that names the path; OSError
propagates. Writers emit `json.dumps(row, sort_keys=True)` per line, or one
`indent=2, sort_keys=True` document, each ending in a newline.
"""

from __future__ import annotations

import json

from .errors import DataError, ParseError


def read_jsonl(path, build) -> list:
    """`build(obj, line_no)` for each non-blank line of `path`, in order.

    `build` rejects a record by raising DataError, KeyError, TypeError or
    ValueError; the reader collects those and raises them together.
    """
    out = []
    problems: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(build(json.loads(line), line_no))
            except json.JSONDecodeError as exc:
                problems.append(f"line {line_no}: invalid JSON ({exc.msg})")
            except KeyError as exc:
                problems.append(f"line {line_no}: missing field {exc}")
            except (DataError, TypeError, ValueError) as exc:
                problems.append(f"line {line_no}: {exc}")
    if problems:
        raise ParseError(f"{path}: " + "; ".join(problems))
    return out


def list_field(obj: dict, name: str) -> tuple:
    """`obj[name]` as a tuple; a string there is rejected, not split."""
    if not isinstance(obj[name], list):
        raise DataError(f"{name} must be a list")
    return tuple(obj[name])


def int_field(obj: dict, name: str) -> int:
    """`obj[name]` if it is a JSON integer; 1.0, "1" and true are rejected,
    not coerced."""
    value = obj[name]
    if not is_int(value):
        raise DataError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def int_list_field(obj: dict, name: str) -> tuple[int, ...]:
    """`list_field(obj, name)` whose items are all JSON integers."""
    values = list_field(obj, name)
    bad = [v for v in values if not is_int(v)]
    if bad:
        raise DataError(f"{name} must hold integers, got {json.dumps(bad[0])}")
    return values


def is_int(value) -> bool:
    """Whether `value` is a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
