"""The benchmark's tracer and workloads name qfibounds functions from outside
the library; a rename or deletion in ``src/`` must not leave one dangling."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _missing(pairs, test):
    return [f"{m}.{n}" for m, n in pairs
            if not test(getattr(importlib.import_module(f"qfibounds.{m}"), n, None))]


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert _missing(tracing.TRACED, callable) == []


def test_workload_names_resolve():
    # every <module>.<name> in workloads.py whose module it imports from qfibounds
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "qfibounds"
               for alias in node.names}
    used = {(node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert len(used) > 20
    assert _missing(sorted(used), lambda value: value is not None) == []


def test_workload_warmups_run(tmp_path, monkeypatch):
    # each workload's warmup input runs, passes its own check and fingerprints
    # to bytes, so that an API or output drift fails here before it turns
    # benchmark operations into failures
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for name, w in workloads.WORKLOADS.items():
        out_dir = tmp_path / name
        out_dir.mkdir()
        out = w.run(w.warmup, out_dir)
        assert w.check(w.warmup, out) == [], name
        assert isinstance(w.fingerprint(out), bytes), name
