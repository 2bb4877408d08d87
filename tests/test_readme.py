"""The README's "Library use" examples run as written, on the corpus its
``flowsentry generate`` line writes."""

import re
import shlex
from pathlib import Path

from flowsentry.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library use\n")
    return text[start : text.index("\n## ", start + 1)]


def test_library_use_examples_run(tmp_path, monkeypatch, capsys):
    section = library_use_section()
    (generate,) = re.findall(r"```bash\n(.*?)```", section, re.S)
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    argv = shlex.split(generate.replace("\\\n", " "))
    assert argv[:2] == ["flowsentry", "generate"]
    assert argv[argv.index("--out") + 1] == "flows.csv"
    assert argv[argv.index("--features") + 1] == "2"

    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.count("\n") == 3  # generate's path and two prints

    windows, flagged, report = namespace["windows"], namespace["flagged"], namespace["report"]
    assert flagged.dtype == bool and len(flagged) == len(windows)
    assert windows.is_attack.any() and flagged.any()
    # the examples' by-hand reports agree with evaluate_detector's
    assert report.per_category == namespace["per_category"] != {}
    assert report.pr_curve == namespace["pr_curve"]
    threshold = namespace["threshold"].threshold
    assert report.counts.tp == int((namespace["attack_scores"] > threshold).sum())
