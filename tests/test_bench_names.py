"""
The benchmark calls the package only through `curvetwist.__all__` and
`curvetwist.cli.main` (bench/README.md).  Every `ct.<name>` that a script
under bench/ reads must therefore stay exported, or a change that trims
`__all__` would break the benchmark without failing a package test.
"""

import ast
import glob
import os

import curvetwist

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _names_read_from_ct(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "ct"}


def test_the_bench_reads_only_exported_names():
    scripts = sorted(glob.glob(os.path.join(BENCH, "*.py")))
    assert scripts
    used = {}
    for path in scripts:
        for name in _names_read_from_ct(path):
            used.setdefault(name, os.path.basename(path))
    # `ct.cli` is the command-line module, whose `main` runs the ladder
    assert "cli" in used and "build_surface" in used
    missing = {name: where for name, where in used.items()
               if name != "cli" and name not in curvetwist.__all__}
    assert not missing
