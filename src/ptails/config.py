"""Plain-text `key = value` configuration with [section] headers, and the
run manifest.  The parser reports the offending line number on errors so the
CLI can exit with a usable diagnostic."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ConfigError", "parse_config", "get_typed", "RunManifest"]

MANIFEST_SCHEMA_VERSION = 1
ARTIFACT_VERSION = "0.1.0"


class ConfigError(Exception):
    def __init__(self, message: str, line_no: int | None = None, line: str = ""):
        self.line_no = line_no
        self.line = line
        loc = f" (line {line_no}: {line.strip()!r})" if line_no is not None else ""
        super().__init__(message + loc)


class _Sections(dict):
    """Parsed sections that remember the (section, key) pairs ``get_typed``
    looked up, so that the keys nothing read can be reported."""

    def __init__(self):
        super().__init__()
        self.looked_up = set()

    def unread(self, known_sections, command: str):
        """A message for every section outside ``known_sections`` and for
        every key not looked up in a section that was."""
        read = {section for section, _ in self.looked_up}
        for section, keys in self.items():
            if section not in known_sections:
                yield f"config section [{section}] is read by no subcommand"
            elif section in read:
                yield from (f"config key [{section}] {key} is not read by {command}"
                            for key in keys if (section, key) not in self.looked_up)


def parse_config(path: str | Path) -> _Sections:
    """Sections of key = value pairs; values stay strings, typed on access."""
    sections = _Sections()
    current = None
    text = Path(path).read_text()
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError("empty section name", no, raw)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", no, raw)
        if current is None:
            raise ConfigError("key outside any [section]", no, raw)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", no, raw)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", no, raw)
        sections[current][key] = value
    return sections


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def get_typed(sections: _Sections, section: str, key: str, typ, default=None):
    sections.looked_up.add((section, key))
    sec = sections.get(section, {})
    if key not in sec:
        return default
    raw = sec[key]
    try:
        if typ is bool:
            return _BOOL[raw.lower()]
        return typ(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"cannot parse [{section}] {key} = {raw!r} as {typ.__name__}") from exc


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    outputs: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)     # messages, in the order raised
    wall_seconds: float = 0.0

    def add_output(self, path: str | Path):
        self.outputs.append(str(path))

    def write(self, path: str | Path):
        """The manifest as JSON at ``path``, each output named relative to the
        manifest's directory, so that the file does not depend on where the
        run was made.  ``wall_seconds`` is a number with exactly three
        decimals, so that the file's length does not move with the digits of
        the time (0.18 against 0.195)."""
        here = Path(path).parent
        payload = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "artifact_version": ARTIFACT_VERSION,
            "subcommand": self.subcommand,
            "config": self.config,
            "outputs": sorted(os.path.relpath(out, here) for out in self.outputs),
            "verdicts": self.verdicts,
            "warnings": self.warnings,
            "wall_seconds": None,
        }
        # json writes a float's shortest repr, so the number is put in by
        # hand; only a top-level key starts a line with two spaces
        text = json.dumps(payload, indent=2, sort_keys=True).replace(
            '\n  "wall_seconds": null', f'\n  "wall_seconds": {self.wall_seconds:.3f}', 1)
        Path(path).write_text(text + "\n")


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False
