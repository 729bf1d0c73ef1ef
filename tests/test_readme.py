"""The README's library quickstart runs as written, and its config
reference matches ``ExperimentConfig``."""

import dataclasses
import json
import re
from pathlib import Path

from unsupcp.harness import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quickstart"})
    out = capsys.readouterr().out
    coverage = float(re.search(r"coverage (\d\.\d+)", out).group(1))
    assert coverage >= 0.8


def test_config_reference_matches_the_config():
    # the field names in the first column of the config table, defaults in parentheses dropped, are exactly
    # the config's fields, and the example config loads
    text = README.read_text(encoding="utf-8")
    table = re.search(r"\| field \| meaning \|\n\|---\|---\|\n((?:\|.*\n)+)", text).group(1)
    first_cells = [re.sub(r"\([^)]*\)", "", row.split("|")[1]) for row in table.splitlines()]
    documented = [name for cell in first_cells for name in re.findall(r"`(\w+)`", cell)]
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    (example,) = re.findall(r"```json\n(.*?)```", text, flags=re.DOTALL)
    ExperimentConfig.from_dict(json.loads(example))
