"""Documentation health checks: relative links resolve, docs stay wired up.

These run in the tier-1 suite *and* in the CI docs job, so a README
restructure or a moved file cannot silently leave dangling links behind.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — good enough for the plain links these docs use.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _documents():
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return docs


def _relative_links(document: Path):
    for match in _LINK.finditer(document.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


@pytest.mark.parametrize("document", _documents(), ids=lambda p: p.name)
def test_relative_links_resolve(document):
    missing = []
    for target in _relative_links(document):
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (document.parent / path).exists():
            missing.append(target)
    assert not missing, (
        f"{document.relative_to(REPO_ROOT)} has broken relative link(s): {missing}"
    )


def test_docs_exist_and_are_linked():
    architecture = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    assert architecture.exists(), "docs/ARCHITECTURE.md is missing"
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme, (
        "README must link to docs/ARCHITECTURE.md"
    )


def test_readme_documents_every_cli_subcommand():
    from repro.cli import build_parser

    readme = (REPO_ROOT / "README.md").read_text()
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if action.__class__.__name__ == "_SubParsersAction"
    )
    undocumented = [name for name in subparsers.choices
                    if f"repro-axc {name}" not in readme]
    assert not undocumented, (
        f"README's CLI reference is missing subcommand(s): {undocumented}"
    )


def test_checked_in_example_specs_are_valid():
    import json

    from repro.experiments import ExperimentSpec

    examples = sorted((REPO_ROOT / "examples").glob("experiment_*.json"))
    kinds = set()
    for path in examples:
        spec = ExperimentSpec.from_dict(json.loads(path.read_text()))
        assert spec.fingerprint()
        kinds.add(spec.kind)
    # One runnable example document per experiment kind.
    assert kinds == {"explore", "compare", "campaign", "sweep"}


def _readme_quickstart() -> str:
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme[readme.index("One exploration, from Python:"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _package_quickstart() -> str:
    import repro

    lines = repro.__doc__.split("Quickstart::", 1)[1].splitlines()[1:]
    block = []
    for line in lines:
        if line.strip() and not line.startswith(" "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


@pytest.mark.parametrize("snippet", [_readme_quickstart, _package_quickstart],
                         ids=["README", "repro.__doc__"])
def test_quickstart_snippet_runs(snippet, capsys):
    exec(compile(snippet(), snippet.__name__, "exec"), {})
    assert "accuracy" in capsys.readouterr().out
