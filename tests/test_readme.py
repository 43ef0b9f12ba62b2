"""The README's library quickstart, scenario-file block and commands run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from aftmean.cli import build_parser
from aftmean.simulation import parse_scenario_text

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, lang):
    """The first ``lang`` code block after the README line ``heading``."""
    text = README.read_text()
    after = text[text.index(heading + "\n"):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def test_quickstart_runs_on_a_generated_sample():
    rng = np.random.default_rng(60)
    x = rng.normal(size=(60, 1))
    t = 1.0 + x[:, 0] + rng.normal(0.0, 0.5, 60)
    c = rng.uniform(0.0, 4.0, 60)
    names = {
        "y": np.minimum(t, c),
        "delta": (t <= c).astype(int),
        "x": x,
        "xnew": rng.normal(size=(5, 1)),
    }
    exec(_block("## Library quickstart", "python"), names)
    assert names["fit"].slopes.shape == (1,)
    assert 0.0 <= names["fit"].tail <= 1.0
    assert names["se"].shape == (2,) and np.isfinite(names["se"]).all()


def test_scenario_block_parses():
    scenario = parse_scenario_text(_block("### Scenario files", "ini"))
    assert scenario.study == "estimation"
    assert (scenario.n, scenario.replications, scenario.seed) == (400, 1000, 20260101)
    assert scenario.censoring.tau == 4.0


def test_command_lines_parse():
    # each `aftmean ...` line of a bash block, continuations joined; none is run
    text = README.read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["aftmean"]:
                commands.append(words[1:])
    assert len(commands) == 5
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
