"""Tracer tests: self-time arithmetic, installation, and missing names."""

import inspect
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import tracer as tr
import worker
import workloads
from oblique_stab import cli, fem, linalg


def installed_wrappers() -> list[str]:
    """Span names of tracer wrappers currently bound anywhere in the package."""
    found = set()
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == tr.PACKAGE or mod_name.startswith(tr.PACKAGE + ".")):
            continue
        for value in vars(mod).values():
            owners = [value] + (list(vars(value).values()) if inspect.isclass(value) else [])
            found.update(getattr(v, "__traced_span__", None) for v in owners)
    found.discard(None)
    return sorted(found)


def test_self_time_with_overlapping_worker_spans():
    # parent [0, 10] on thread 0; children on threads 1 and 2 overlap on
    # [3, 5]; a same-thread child [8, 9]; a grandchild inside the first.
    spans = tr.Spans(
        names=["cli.main", "a", "b", "c", "d"],
        name=[0, 1, 2, 3, 4],
        thread=[0, 1, 2, 0, 1],
        start=[0.0, 1.0, 3.0, 8.0, 2.0],
        end=[10.0, 5.0, 7.0, 9.0, 4.0],
        parent=[-1, 0, 0, 0, 1],
    )
    own = tr.self_times(spans)
    # union of [1,5], [3,7], [8,9] is 7 long
    assert own == pytest.approx([3.0, 2.0, 4.0, 1.0, 2.0])
    assert tr.offthread_busy_s(spans, main_thread=0) == pytest.approx(8.0)
    stats = tr.summarize(spans)
    assert stats["cli.main"].self_s == pytest.approx(3.0)
    assert stats["cli.main"].total_s == pytest.approx(10.0)


def test_worker_thread_spans_are_children_of_the_main_span():
    t = tr.Tracer()
    leaf = t.wrap("leaf", lambda x: x)
    barrier = threading.Barrier(2, timeout=10)

    def work(x):
        barrier.wait()
        return leaf(x)

    def top():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(work, range(2)))

    t.wrap("top", top)()
    spans = t.spans()
    top_index = spans.name.index(spans.names.index("top"))
    leaves = [i for i, n in enumerate(spans.name) if spans.names[n] == "leaf"]
    assert len(leaves) == 2
    assert {spans.parent[i] for i in leaves} == {top_index}
    assert len({spans.thread[i] for i in leaves}) == 2
    assert all(spans.thread[i] != spans.thread[top_index] for i in leaves)


def test_install_wraps_every_import_site_and_uninstall_restores():
    original = linalg.solve_dense
    t = tr.Tracer()
    t.install()
    try:
        assert "linalg.solve_dense" in t.wrapped
        assert "linalg.SymTridiagonal.matvec" in t.wrapped
        assert fem.solve_dense is linalg.solve_dense is not original
        assert cli.main.__traced_span__ == "cli.main"
        assert installed_wrappers()
    finally:
        t.uninstall()
    assert linalg.solve_dense is original and fem.solve_dense is original
    assert installed_wrappers() == []


def _tiny_sweep(out, seen):
    def check(rc, path):
        seen.append(installed_wrappers())
        return [] if rc == 0 else ["exit"]

    return workloads.Workload(
        "tiny", ["eigs", "--M", "2..4", "--r", "0.1", "--output", str(out)], out, check
    )


@pytest.fixture
def src_on_path(monkeypatch):
    """Lets the loop's fresh interpreters import the package from src/."""
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))


def test_untraced_loop_installs_no_wrappers(tmp_path, src_on_path):
    seen = []
    res = worker.timed_loop(cli, _tiny_sweep(tmp_path / "sweep.csv", seen), 0.0)
    assert res["failed"] == 0 and res["traced"] == [False]
    assert seen == [[]]
    assert len(res["refs"]) == len(res["walls"]) + 1
    assert len(res["setup"]) == 1 and res["setup"][0] > 0.0


def test_traced_loop_alternates_and_uninstalls(tmp_path, src_on_path):
    seen = []
    wl = _tiny_sweep(tmp_path / "sweep.csv", seen)
    tracing = worker.Tracing(wl)
    res = worker.timed_loop(cli, wl, 0.0, tracing)
    assert res["traced"] == [False, True]
    assert seen == [[], []]  # checks run after the wrappers are removed
    assert len(tracing.per_call) == 1
    assert tracing.per_call[0]["actuators.place.calls"] == 3
    assert installed_wrappers() == []


def test_missing_name_is_reported_absent_not_a_crash(monkeypatch):
    monkeypatch.delattr(linalg, "SymTridiagonal")
    monkeypatch.setitem(tr.LAYERS, "no_such_module", None)
    t = tr.Tracer()
    missing = t.install(worker._hooks(t))
    try:
        assert missing == ["no_such_module"]
        assert "linalg.SymTridiagonal.matvec" not in t.wrapped
        absent = worker.absent_metrics(t)
        assert "linalg.tridiag_matvec" in absent
        assert "linalg.tridiag_solve" not in absent
    finally:
        t.uninstall()


def test_traced_sweep_counts_and_busy_ratio(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["eigs", "--M", "2..9", "--r", "0.1", "--jobs", "2", "--output", str(out)]
    wl = workloads.Workload("tiny", argv, out, lambda rc, path: [], jobs=2)
    t = tr.Tracer()
    t.install(worker._hooks(t))
    try:
        t.reset()
        rc, _, _ = worker.invoke(cli, argv, out)
        metrics = worker.layer_metrics(t, wl, 0)
    finally:
        t.uninstall()
    assert rc == 0
    assert metrics["actuators.place.calls"] == 8
    assert metrics["linalg.sym_eigen.calls"] == 8
    assert 0.0 < metrics["cli.worker_busy_ratio"] <= 1.0
    assert metrics["cli.main.self_s"] >= 0.0


def test_projection_evaluators_and_nodes_are_counted(tmp_path):
    wl = workloads.build("projection", 3, tmp_path)
    argv = [a if a != str(workloads.PROJECTION_M) else "4" for a in wl.argv]
    t = tr.Tracer()
    t.install(worker._hooks(t))
    try:
        t.reset()
        rc, _, _ = worker.invoke(cli, argv, wl.output)
        metrics = worker.layer_metrics(t, wl, 0)
    finally:
        t.uninstall()
    assert rc == 0
    assert metrics["projection.evaluator.calls"] > 2 * workloads.PROJECTION_SAMPLES
    nodes = metrics["quadrature.nodes"]
    assert nodes > 0 and nodes % 16 == 0
    assert Path(wl.output).is_file()
