import weakref
from collections import Counter

import pytest

from thetagraph.graph import build_theta
from thetagraph.verify import SUITES, corrupting_builder, run_suite


def test_run_suite_builds_each_group_once_with_one_graph_alive():
    built = []  # (group, weak reference to its graph), in build order
    most_alive = 0

    def counting_builder(g):
        nonlocal most_alive
        most_alive = max(most_alive, sum(ref() is not None for _, ref in built))
        t = build_theta(g)
        built.append((g.describe(), weakref.ref(t)))
        return t

    results = run_suite("all", build=counting_builder)
    assert all(r.ok for r in results)
    assert len(built) <= 396
    # only the rotation-block identity builds a second graph, its cyclic(n) for n <= 30
    repeated = {name: k for name, k in Counter(name for name, _ in built).items() if k > 1}
    assert set(repeated) <= {f"cyclic({n})" for n in range(1, 31)}
    assert all(k == 2 for k in repeated.values())
    assert most_alive <= 1


@pytest.mark.parametrize("build", [build_theta, corrupting_builder])
def test_each_suite_matches_its_slice_of_all(build):
    everything = run_suite("all", build=build)
    assert len(everything) == len(SUITES["all"])
    for suite, checks in SUITES.items():
        start = SUITES["all"].index(checks[0])
        assert run_suite(suite, build=build) == everything[start:start + len(checks)], suite
