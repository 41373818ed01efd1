"""Guard against a second timing model regrowing.

Everything dOpenCL computes runs on clocks and first-fit timelines
(``repro.sim.clock`` / ``repro.sim.timeline``).  The rank scheduler in
``repro.sim.process`` exists for the mini-MPI baseline alone; a module
outside ``repro.mpi`` that imports it fails here until it is argued for.
"""

import ast
import glob
import inspect
import os

from repro import mpi

SCHEDULER = "repro.sim.process"


def _imports(path):
    """Every module name the file at ``path`` imports."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_only_mpi_imports_the_rank_scheduler():
    root = os.path.dirname(os.path.dirname(inspect.getsourcefile(mpi)))
    importers = {
        os.path.relpath(path, root)
        for path in glob.glob(os.path.join(root, "**", "*.py"), recursive=True)
        if SCHEDULER in _imports(path)
    }
    assert importers, "nothing imports the rank scheduler any more"
    assert {os.path.dirname(p) for p in importers} == {"mpi"}, sorted(importers)
