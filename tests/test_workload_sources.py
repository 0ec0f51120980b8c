"""Tests for ``repro.workloads.sources``: one source format, one workload memo."""

import pytest

from repro.eval import experiments, runner
from repro.eval.cli import main
from repro.eval.figures import list_experiments
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
