"""README.md names only what pacslab has: a renamed or deleted function or
constant must take its mention in the README with it."""

import importlib
import pkgutil
import re
from pathlib import Path

import pacslab
from pacslab import cli

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = {
    info.name: importlib.import_module(f"pacslab.{info.name}")
    for info in pkgutil.iter_modules(pacslab.__path__)
}
MODULES["dc"] = MODULES["downconversion"]  # the alias the README imports it as

# `fock.ladder` and `dc.auto_dims`, but not the file `fock.py`
DOTTED = re.compile(r"`([a-z_]+)\.(?!py`)([A-Za-z_]\w*)`")
CONSTANT = re.compile(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)`")


def test_readme_names_resolve():
    text = README.read_text(encoding="utf-8")
    dotted = {(mod, name) for mod, name in DOTTED.findall(text) if mod in MODULES}
    constants = set(CONSTANT.findall(text))
    assert dotted and constants  # the patterns still find what the README names
    missing = sorted(f"{mod}.{name}" for mod, name in dotted if not hasattr(MODULES[mod], name))
    missing += sorted(
        name for name in constants if not any(hasattr(m, name) for m in MODULES.values())
    )
    assert missing == []


def test_readme_cli_table_matches_the_scenario_table():
    text = README.read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `([a-z-]+)` +\|(.*)\|$", text, re.MULTILINE))
    assert rows.keys() == cli._SCENARIOS.keys()
    for scenario, (_, grid_option, _, _, others) in cli._SCENARIOS.items():
        flags = set(re.findall(r"`(--[a-z-]+)`", rows[scenario]))
        assert flags == {cli._flag(key) for key in (grid_option, *others) if key}, scenario
    # the config keys: every option but config itself, in usage order
    keys = re.search(r"Its keys\s+are the flag names with `_` for `-` \(([^)]*)\)", text)
    assert tuple(re.findall(r"`(\w+)`", keys[1])) == tuple(k for k in cli.OPTIONS if k != "config")
