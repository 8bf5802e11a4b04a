"""Every binding the benchmark's tracer patches must exist in the package.

perfbench/tracing.py is read as text and its SITES table parsed, never
imported, so this test leaves the benchmark tree untouched.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_sites() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no SITES table")


def test_every_trace_site_resolves():
    sites = trace_sites()
    assert sites
    missing = []
    for bindings in sites.values():
        for site in bindings:
            mod_name, attr = site.split(":")
            if not hasattr(importlib.import_module(f"soundcompass.{mod_name}"), attr):
                missing.append(site)
    assert missing == []
