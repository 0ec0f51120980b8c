"""Tests for ``repro.workloads.sources``: one source format, one workload memo."""

import pytest

from repro.api import JobSpec
from repro.eval import experiments, runner
from repro.eval.cli import main
from repro.eval.figures import list_experiments
from repro.formats.coo import COOMatrix
from repro.graphs import generators
from repro.graphs.generators import GRAPH_SPECS, generate_graph
from repro.workloads import locality, sources, suite
from repro.workloads.sources import Workload, materialize_source, source_fields
from repro.workloads.suite import SUITE_SPECS, generate_matrix


def _driver_dims():
    """The default suite dims plus every dim a quick registration passes."""
    dims = {experiments.DEFAULT_SPMV_DIM, experiments.DEFAULT_SPMM_DIM}
    for experiment in list_experiments():
        kwargs = experiment.quick_kwargs
        dims.update(kwargs[name] for name in ("dim", "spmv_dim", "spmm_dim") if name in kwargs)
        dims.update(kwargs.get("dims", ()))
    return sorted(dims, key=repr)


@pytest.mark.parametrize("dim", _driver_dims(), ids=repr)
def test_memoized_matrix_equals_generator(dim):
    for spec in SUITE_SPECS:
        memo = materialize_source(Workload.suite(spec.key, dim))
        fresh = generate_matrix(spec.key, dim=dim)
        assert memo.shape == fresh.shape, spec.key
        for name in ("row", "col", "values"):
            shared, built = getattr(memo, name), getattr(fresh, name)
            assert shared.dtype == built.dtype, (spec.key, name)
            assert shared.tobytes() == built.tobytes(), (spec.key, name)
            assert not shared.flags.writeable, (spec.key, name)


@pytest.mark.parametrize("n_vertices", [None, 64], ids=repr)
def test_memoized_graph_equals_generator_and_is_shared(n_vertices):
    for spec in GRAPH_SPECS:
        graph = materialize_source(Workload.graph(spec.key, n_vertices))
        fresh = generate_graph(spec, n_vertices=n_vertices)
        assert (graph.n_vertices, graph.directed, graph.edges) == (
            fresh.n_vertices, fresh.directed, fresh.edges
        ), spec.key
        assert materialize_source(Workload.graph(spec.key, n_vertices)) is graph
        assert isinstance(graph._edges, tuple)


def test_quick_all_builds_each_source_once(monkeypatch, capsys):
    """A serial, uncached quick ``all`` builds every distinct source once.

    Its 30 sources (20 suite matrices, 4 graphs, 6 locality matrices) fit
    under the memo bound, so a second build of any of them is waste.
    """
    calls = {}

    def counting(module, name):
        build = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append((args, tuple(sorted(kwargs.items()))))
            return build(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(suite, "generate_matrix")
    counting(generators, "generate_graph")
    counting(locality, "matrix_with_locality")
    assert sources.MEMO_SIZE >= 30
    sources._build.cache_clear()
    assert main(["all", "--quick", "--no-cache", "--processes", "1"]) == 0
    capsys.readouterr()
    counts = {name: len(made) for name, made in calls.items()}
    assert counts == {"generate_matrix": 20, "generate_graph": 4, "matrix_with_locality": 6}
    for made in calls.values():
        assert len(set(made)) == len(made)


def test_full_all_builds_each_source_once(monkeypatch, capsys):
    """An uncached full ``all`` builds each of its 90 sources exactly once.

    The generators and the job executor are stubbed, so only the order in
    which drivers and jobs read sources is real. A memo bound below the
    distinct count shows up as second builds: a bound of 32 made 121 builds,
    and any bound from 42 to 64 made 106. A warm ``all`` reads a subset of
    these sources, so it builds none twice either.
    """
    built = []

    def fake_matrix(spec, dim=None, seed=None):
        key = spec if isinstance(spec, str) else spec.key
        built.append(("suite", key, dim, seed))
        n = dim or suite.get_spec(key).scaled_dim
        return COOMatrix((n, n), [0, n - 1], [0, n - 1], [1.0, 1.0])

    def fake_graph(spec, n_vertices=None, seed=None):
        key = spec if isinstance(spec, str) else spec.key
        built.append(("graph", key, n_vertices))
        return generate_graph(spec, n_vertices=8)

    def fake_locality(rows, cols, nnz, block_size, locality_percent, seed=None):
        built.append(("locality", rows, cols, nnz, block_size, locality_percent, seed))
        return COOMatrix((rows, cols), [0], [0], [1.0])

    report = runner.execute_job(JobSpec("spmv", "taco_csr", Workload.suite("M8", 48)).to_job())

    def fake_execute(job):
        materialize_source(job.source)
        return report

    monkeypatch.setattr(suite, "generate_matrix", fake_matrix)
    monkeypatch.setattr(generators, "generate_graph", fake_graph)
    monkeypatch.setattr(locality, "matrix_with_locality", fake_locality)
    monkeypatch.setattr(runner, "execute_job", fake_execute)
    sources._build.cache_clear()
    try:
        assert main(["all", "--no-cache", "--processes", "1"]) == 0
    finally:
        sources._build.cache_clear()  # drop the stub workloads
    capsys.readouterr()
    kinds = {}
    for source in set(built):
        kinds[source[0]] = kinds.get(source[0], 0) + 1
    assert kinds == {"suite": 34, "graph": 8, "locality": 48}
    assert len(built) == len(set(built)) <= sources.MEMO_SIZE


def test_source_fields():
    assert source_fields(Workload.suite("M8", 48, 5)) == ("suite", "M8", 48)
    assert source_fields(Workload.suite("M8")) == ("suite", "M8", None)
    assert source_fields(Workload.graph("G2", 32)) == ("graph", "G2", 32)
    assert source_fields(Workload.locality(32, 16, 8, 4, 50.0, 3)) == ("locality", None, 32)
    assert source_fields(["other", 1, 2]) == ("other", None, None)
    with pytest.raises(IndexError):
        source_fields([])


def test_runner_executes_through_the_shared_memo():
    assert runner.materialize_source is materialize_source
