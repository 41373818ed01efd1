"""Documentation lint: docstring coverage and markdown link integrity.

The container has no ``pydocstyle``, so this module implements the
checks the tier-1 suite gates docs on (``tests/test_doclint.py``):

* :func:`missing_docstrings` — an AST walk enforcing the docstring
  policy over a source tree: every module, public class, public
  module-level function and public method must carry a docstring.
  Private names (leading underscore), dunders and *nested* functions
  (handler closures, decorator bodies) are exempt — they are lexically
  local implementation detail.
* :func:`broken_markdown_links` — resolves every relative markdown link
  (and its ``#anchor``, if any) against the repository: the target file
  must exist and the anchor must match a heading in it, using GitHub's
  slugification.  ``http(s)``/``mailto`` links are skipped (no network
  in tier-1).
* :func:`dangling_markdown_paths` — a markdown file a Python source
  names (docstring, comment or string) must exist in the repository.

All return human-readable problem strings (empty list = clean) so the
test failure output names every offender directly.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, List


def _iter_python_files(roots: Iterable[str]) -> List[str]:
    """Every ``*.py`` under the given directories (sorted, recursive)."""
    out: List[str] = []
    for root in roots:
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _class_problems(path: str, node: ast.ClassDef) -> List[str]:
    problems = []
    if _is_public(node.name) and not ast.get_docstring(node):
        problems.append(f"{path}:{node.lineno}: class {node.name} has no docstring")
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(child.name) and not ast.get_docstring(child):
                problems.append(
                    f"{path}:{child.lineno}: method "
                    f"{node.name}.{child.name} has no docstring"
                )
        elif isinstance(child, ast.ClassDef):
            problems.extend(_class_problems(path, child))
    return problems


def missing_docstrings(roots: Iterable[str]) -> List[str]:
    """All docstring-policy violations under ``roots`` (see module doc)."""
    problems: List[str] = []
    for path in _iter_python_files(roots):
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        if not ast.get_docstring(tree):
            problems.append(f"{path}:1: module has no docstring")
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                problems.extend(_class_problems(path, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public(node.name) and not ast.get_docstring(node):
                    problems.append(
                        f"{path}:{node.lineno}: function {node.name} has no docstring"
                    )
    return problems


_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading: lowercase, punctuation
    stripped, spaces to dashes (backticks/formatting removed first)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _markdown_anchors(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as fh:
        body = _CODE_FENCE_RE.sub("", fh.read())
    return [_github_slug(m.group(1)) for m in _HEADING_RE.finditer(body)]


def broken_markdown_links(files: Iterable[str]) -> List[str]:
    """All unresolvable relative links/anchors in the given markdown
    files (see module docstring for the rules)."""
    problems: List[str] = []
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            body = _CODE_FENCE_RE.sub("", fh.read())
        base = os.path.dirname(os.path.abspath(path))
        for match in _LINK_RE.finditer(body):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            ref, _, anchor = target.partition("#")
            if ref:
                resolved = os.path.normpath(os.path.join(base, ref))
                if not os.path.exists(resolved):
                    problems.append(f"{path}: broken link target {target!r}")
                    continue
            else:
                resolved = os.path.abspath(path)  # same-document anchor
            if anchor:
                if not resolved.endswith((".md", ".markdown")):
                    continue  # anchors into source files: not checkable
                if _github_slug(anchor) not in _markdown_anchors(resolved):
                    problems.append(f"{path}: broken anchor {target!r}")
    return problems


_MARKDOWN_PATH_RE = re.compile(r"[\w./-]+\.md\b")


def dangling_markdown_paths(roots: Iterable[str], repo_root: str) -> List[str]:
    """Every ``*.md`` path named in a Python file under ``roots`` that
    exists neither relative to ``repo_root`` nor beside the file."""
    problems: List[str] = []
    for path in _iter_python_files(roots):
        bases = (repo_root, os.path.dirname(path))
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for name in _MARKDOWN_PATH_RE.findall(line):
                    if not any(os.path.exists(os.path.join(base, name)) for base in bases):
                        problems.append(f"{path}:{lineno}: names {name!r}, which does not exist")
    return problems
