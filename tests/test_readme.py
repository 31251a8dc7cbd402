"""The README's examples run as written.

The Python API block is executed and every ``expr  # -> value`` line in it
is checked; the ``thirdq spectrum`` transcript must match byte for byte, and
``thirdq verify`` must pass at the default cutoff the README states.  A
renamed function or a changed output then fails here instead of leaving the
README stale.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from thirdq.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def transcript(command):
    """argv and the output lines of the ``$ thirdq <command>`` example."""
    match = re.search(rf"^\$ thirdq ({command} .*)\n((?:(?!```).+\n)*)", README, re.M)
    line, output = match.groups()
    return shlex.split(line, comments=True), line, output


@pytest.fixture
def osc_json(tmp_path, monkeypatch):
    """The README's running example, written as ``osc.json`` in the cwd."""
    (doc,) = fenced("json")
    (tmp_path / "osc.json").write_text(doc)
    monkeypatch.chdir(tmp_path)


def test_python_api_block_runs_and_its_results_hold():
    (block,) = fenced("python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    claims = re.findall(r"^(\S.*?)\s+# -> (.+)$", block, re.M)
    assert len(claims) == 3
    for expr, expected in claims:
        got = eval(expr, namespace)
        want = eval(expected, {"array": np.array})
        assert np.allclose(got, want, rtol=1e-9, atol=0), (expr, got, want)


def test_spectrum_transcript_is_byte_identical(osc_json, capsys):
    argv, _, output = transcript("spectrum")
    assert main(argv) == 0
    assert capsys.readouterr().out == output


def test_verify_passes_at_the_stated_default_cutoff(osc_json, capsys):
    argv, line, output = transcript("verify")
    assert output == ""
    cutoff = int(re.search(r"default cutoff (\d+)", line).group(1))
    assert f"({cutoff} for `osc.json`)" in README
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"]["cutoff"] == cutoff
