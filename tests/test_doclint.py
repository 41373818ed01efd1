"""Tier-1 doc lint: docs rot fails the test suite.

Gates two things (see :mod:`repro.tools.doclint`):

* docstring coverage over ``repro.core`` and ``repro.net`` — every
  module, public class, public function and public method documents
  itself;
* link/anchor integrity of ``README.md`` and everything under
  ``docs/`` — relative links resolve, anchors match real headings;
* every markdown file a source under ``src/`` or ``examples/`` names
  exists;
* the two protocol tables of ``docs/architecture.md`` say what the
  message classes declare (:mod:`repro.core.protocol.messages`): the
  ``DEFERRABLE`` set with its field roles, and the replay column of the
  exchange table.
"""

import dataclasses
import glob
import itertools
import os
import re

from repro.core.protocol import messages as P
from repro.net.messages import CommandBatch, registered_types
from repro.tools.doclint import (
    broken_markdown_links,
    dangling_markdown_paths,
    missing_docstrings,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def _repo(*parts: str) -> str:
    return os.path.join(REPO_ROOT, *parts)


def test_core_and_net_docstring_coverage():
    problems = missing_docstrings([_repo("src", "repro", "core"), _repo("src", "repro", "net")])
    assert not problems, "missing docstrings:\n" + "\n".join(problems)


def test_readme_and_docs_links_resolve():
    files = [_repo("README.md")] + sorted(glob.glob(_repo("docs", "*.md")))
    assert files, "README.md / docs/*.md are required (doc satellite of PR 2)"
    problems = broken_markdown_links(files)
    assert not problems, "broken markdown links:\n" + "\n".join(problems)


def test_sources_name_only_existing_markdown_files():
    problems = dangling_markdown_paths([_repo("src"), _repo("examples")], REPO_ROOT)
    assert not problems, "dangling markdown references:\n" + "\n".join(problems)


def _table_rows(after: str):
    """The body rows (as lists of cells) of the first markdown table of
    ``docs/architecture.md`` following the text ``after``."""
    with open(_repo("docs", "architecture.md"), encoding="utf-8") as fh:
        text = fh.read()
    lines = text[text.index(after):].splitlines()
    table = itertools.dropwhile(lambda line: not line.startswith("|"), lines)
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), table))
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def test_deferrable_table_is_the_declared_set_with_the_declared_roles():
    documented = {
        request.strip("`"): set(re.findall(r"(\w+) `(\w+)`", roles))
        for _group, request, roles, _reply in _table_rows("The current `DEFERRABLE` set")
    }
    declared = {
        cls.__name__: {
            (f.metadata["handle"], f.name)
            for f in dataclasses.fields(cls)
            if "handle" in f.metadata
        }
        for cls in P.DEFERRABLE
    }
    assert documented == declared


def test_exchange_table_states_the_declared_replay_contract():
    """Every message class a row of the Failure-semantics exchange table
    names is registered, and declares what the row's replay column
    states: a *safe* row quotes the class's ``replay_safe`` reason, a
    *deduped* row names the stamped envelope (or what rides it), and the
    rows that are neither name classes declaring no reason."""
    types = registered_types()
    rows = _table_rows("fixed by **the replay contract**")
    assert len(rows) == 9
    safe = set()
    for exchange, _sender, _ordered, replay, _lost in rows:
        kind = re.match(r"\**(safe|deduped|neither|not retried)\b", replay).group(1)
        for name in re.findall(r"`([A-Z]\w+)`", exchange):
            cls = types[name]
            reason = getattr(cls, "replay_safe", None)
            if kind == "safe":
                assert reason and reason in replay, (name, reason)
                safe.add(cls)
            elif kind == "deduped":
                assert cls is CommandBatch or cls in P.DEFERRABLE, name
            else:
                assert reason is None, (name, reason)
    assert safe == {cls for cls in types.values() if getattr(cls, "replay_safe", None)}


def test_doclint_catches_a_dangling_markdown_path(tmp_path):
    (tmp_path / "NOTES.md").write_text("# notes\n")
    (tmp_path / "mod.py").write_text(
        '"""See NOTES.md and docs/architecture.md."""\n# but not GONE.md\n'
    )
    problems = dangling_markdown_paths([str(tmp_path)], REPO_ROOT)
    assert len(problems) == 1 and "mod.py:2" in problems[0] and "GONE.md" in problems[0]


def test_doclint_catches_a_missing_docstring(tmp_path):
    """The lint itself works: an undocumented public function is caught,
    private/nested ones are exempt."""
    bad = tmp_path / "mod.py"
    bad.write_text(
        '"""Module doc."""\n'
        "def public(): pass\n"
        "def _private(): pass\n"
        "def documented():\n"
        '    """Doc."""\n'
        "    def nested(): pass\n"
        "    return nested\n"
    )
    problems = missing_docstrings([str(tmp_path)])
    assert len(problems) == 1 and "public" in problems[0]


def test_doclint_catches_broken_links(tmp_path):
    md = tmp_path / "doc.md"
    md.write_text(
        "# A Heading\n"
        "[ok](doc.md#a-heading) [missing](nope.md) [bad anchor](doc.md#nope)\n"
        "[external](https://example.com/x#y)\n"
    )
    problems = broken_markdown_links([str(md)])
    assert len(problems) == 2
    assert any("nope.md" in p for p in problems)
    assert any("#nope" in p for p in problems)
