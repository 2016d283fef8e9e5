"""The benchmark's traced mode (`bench/tracing.py`) wraps package functions by
name and reads their arguments and results: each traced name must resolve,
and a tracer must go onto the loaded package, record every span with its
counts, and come off it again."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import hypercover as hc
from hypercover import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span", sorted(tracing.TRACED))
def test_traced_names_resolve(span):
    (module_name, paths), _ = tracing.TRACED[span]
    module = importlib.import_module(module_name)
    for path in paths:
        target = module
        for attr in path.split("."):
            target = getattr(target, attr)
        assert callable(target), f"{module_name}.{path}"


def package_bindings() -> dict:
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "hypercover" or name.startswith("hypercover.")
            for attr, value in vars(module).items()}


def one_call_per_span(capsys):
    """Small calls that between them reach every traced span."""
    h, c = hc.hex_cover(3)
    hc.verify_cover(h, c, hc.MultiplicityList.of(2, 3))
    hc.cover_from_json(hc.cover_to_json(c))
    hc.hypergraph_from_json(hc.hypergraph_to_json(h))
    hc.derandomized_extraction(h, c)
    hc.cube_graph(2, 1)
    hc.pi_partition(2, 1)
    hc.gf2_rank(hc.adjacency_cube_matrix(4, 1))
    k4 = hc.complete_hypergraph(4)
    hc.enumerate_blocks(k4)
    hc.min_partition_size(k4)
    hc.independence_number(k4)
    assert cli.main(["bounds", "ks-chromatic", "--k", "20", "--r", "2"]) == 0
    capsys.readouterr()


def test_tracer_installs_and_uninstalls(capsys):
    before = package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert package_bindings() != before
        one_call_per_span(capsys)
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    spans = {s.name: s for s in tracer.spans}
    assert set(spans) == set(tracing.TRACED)
    for name, (_, counter) in tracing.TRACED.items():
        assert (spans[name].counts != {}) == (counter is not None), name
    assert spans["oracles.search"].counts == {"exact": 1}
