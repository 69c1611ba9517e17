"""The public API is what the command line, the README and the benchmark use."""

import mobb

# README's library example and its list of further exports
EXPORTS = {
    "GeneratorSpec", "SolverConfig", "generate", "solve",
    "Instance", "read_instance", "write_instance",
    "enumerate_nondominated", "evaluate", "is_feasible", "compare",
    "Dominance", "Solution", "SolveStats",
}


def test_exports_are_exactly_the_documented_names():
    assert set(mobb.__all__) == EXPORTS
    assert len(mobb.__all__) == len(EXPORTS)


def test_every_export_resolves():
    for name in mobb.__all__:
        assert getattr(mobb, name) is not None
