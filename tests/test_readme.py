"""The README's examples run as written: the library example and the
command-line sample session on the README's own graph document."""

import re
from pathlib import Path

import numpy as np
import pytest

from gainlap import hermitian_spectrum
from gainlap.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block that follows the text ``after``."""
    found = re.search(re.escape(after) + r".*?```" + lang + r"\n(.*?)```", README, re.S)
    assert found, f"README has no {lang} block after {after!r}"
    return found.group(1)


def test_library_example_prints_the_verdict_and_the_spectrum(capsys):
    namespace: dict = {}
    exec(compile(_block("## Library example", "python"), "README.md", "exec"), namespace)
    verdict, spectrum = capsys.readouterr().out.split("\n", 1)
    assert verdict == "False"
    vals = np.array(spectrum.strip().strip("[]").split(), dtype=float)
    assert vals.size == 5 and np.all(np.diff(vals) >= 0)
    assert vals == pytest.approx(hermitian_spectrum(namespace["DL"]), rel=1e-7, abs=1e-7)


def test_sample_session_runs_on_the_readme_document(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(_block("## Command line", "json"), encoding="utf-8")
    lines = _block("Sample session:", "text").splitlines()  # a command, then its output
    assert all(cmd.startswith("$ gainlap ") for cmd in lines[::2])
    session = [(cmd.split()[2:], shown) for cmd, shown in zip(lines[::2], lines[1::2])]
    assert [argv[0] for argv, _ in session] == ["balance", "verify"]
    outputs = []
    for argv, shown in session:
        code = run([str(path) if a == "graph.json" else a for a in argv])
        out = capsys.readouterr().out
        assert code == 0, argv
        assert out.split()[:2] == shown.split()[:2], argv
        outputs.append(out)
    assert outputs[0] == "unbalanced\n"
    assert outputs[1].startswith("PASS theorem=1 ")
