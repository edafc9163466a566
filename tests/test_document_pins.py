"""Every document of ``tools/document_matrix.py`` against its committed pin.

``tools/document_digests.json`` holds the sha256 of the 62 documents the
matrix writes and the exit code and stderr of its 10 failing invocations,
with the Python, numpy and scipy versions that made them. The matrix runs
once on the ``src/`` under test, in a fresh interpreter. Under other
versions the test fails and names both sets: the pins are then remade with
``python3 tools/document_matrix.py src > tools/document_digests.json`` on a
tree known to write the right documents.
"""

import importlib.util
import json
import os

import extremogram

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _matrix():
    spec = importlib.util.spec_from_file_location(
        "document_matrix", os.path.join(TOOLS, "document_matrix.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_document_and_error_output_matches_its_pin():
    matrix = _matrix()
    with open(os.path.join(TOOLS, "document_digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    versions = matrix.versions()
    assert versions == pinned["versions"], (
        f"the pins were made with {pinned['versions']}, this run has {versions}")
    src = os.path.dirname(os.path.dirname(os.path.abspath(extremogram.__file__)))
    got = matrix.pins(src)
    for key in ("documents", "errors"):
        differ = [name for name in pinned[key] | got[key]
                  if pinned[key].get(name) != got[key].get(name)]
        assert not differ, f"{key} that differ from their pins: {differ}"
