"""README's Settings table lists exactly the ``REPRO_*`` names the
package reads: a new knob must be documented there, and a deleted one
must leave it."""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"REPRO_[A-Z_]+")


def names_in_source() -> set[str]:
    return {
        name
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
        for name in NAME.findall(path.read_text())
    }


def names_in_settings_table() -> set[str]:
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    return {
        NAME.search(line.split("|")[1]).group()
        for line in section.splitlines()
        if line.startswith("| `REPRO_")
    }


def test_settings_table_matches_the_source():
    assert names_in_settings_table() == names_in_source()
