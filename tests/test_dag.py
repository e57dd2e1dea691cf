import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqual.dag import (
    CycleError,
    Dag,
    DuplicateEdgeError,
    SizeLimitError,
    VariableSet,
    add_edge_checked,
    count_dags,
    enumerate_dags,
    topological_order,
)

ABC = VariableSet(["A", "B", "C"])


def test_variable_names_unique():
    with pytest.raises(ValueError):
        VariableSet(["A", "A"])


def test_toposort_empty_graph_any_permutation():
    order = topological_order(Dag(ABC))
    assert sorted(order) == [0, 1, 2]


def test_toposort_chain_unique():
    dag = Dag.from_names(ABC, [("A", "B"), ("B", "C")])
    assert topological_order(dag) == (0, 1, 2)


def test_toposort_collider_brute_force():
    # A->C, B->C: valid orders are exactly those with C last
    dag = Dag.from_names(ABC, [("A", "C"), ("B", "C")])
    valid = [perm for perm in itertools.permutations(range(3))
             if all(perm.index(u) < perm.index(v) for u, v in dag.edges)]
    assert topological_order(dag) in valid
    assert all(perm[2] == 2 for perm in valid)


def test_construction_rejects_cycles_and_self_loops():
    with pytest.raises(CycleError):
        Dag(ABC, frozenset({(0, 1), (1, 2), (2, 0)}))
    with pytest.raises(CycleError):
        Dag(ABC, frozenset({(0, 0)}))


def test_add_edge_checked():
    chain = Dag.from_names(ABC, [("A", "B")])
    with pytest.raises(CycleError):
        add_edge_checked(chain, 1, 0)
    with pytest.raises(DuplicateEdgeError):
        add_edge_checked(chain, 0, 1)
    grown = add_edge_checked(chain, 1, 2)
    assert grown.edges == frozenset({(0, 1), (1, 2)})
    # original untouched
    assert chain.edges == frozenset({(0, 1)})


def path_exists(dag, start, target):
    """Whether a directed path, possibly of no edges, leads start to target."""
    seen, stack = {start}, [start]
    while stack:
        node = stack.pop()
        if node == target:
            return True
        for child in dag.children(node):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_add_edge_checked_on_every_small_dag(n):
    for dag in enumerate_dags(n):
        for u, v in itertools.product(range(n), repeat=2):
            if (u, v) in dag.edges:
                with pytest.raises(DuplicateEdgeError,
                                   match=rf"^edge \({u},{v}\) already present$"):
                    add_edge_checked(dag, u, v)
            elif path_exists(dag, v, u):
                with pytest.raises(CycleError,
                                   match=rf"^adding \({u},{v}\) would create a cycle$"):
                    add_edge_checked(dag, u, v)
            else:
                grown = add_edge_checked(dag, u, v)
                assert grown.variables == dag.variables
                assert grown.edges == dag.edges | {(u, v)}


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 25), (4, 543)])
def test_enumerate_dag_counts(n, count):
    dags = list(enumerate_dags(n))
    assert len(dags) == count
    assert len(set(d.edges for d in dags)) == count
    # independent recursive counting oracle
    assert count_dags(n) == count


def test_enumerate_matches_formula_n5():
    assert count_dags(5) == 29281
    assert sum(1 for _ in enumerate_dags(5)) == 29281


def test_enumerate_size_limit():
    with pytest.raises(SizeLimitError):
        list(enumerate_dags(6))


def test_json_round_trip():
    import json

    dag = Dag.from_names(ABC, [("B", "C"), ("A", "C")])
    text = dag.to_json()
    payload = json.loads(text)
    assert payload["edges"] == [["A", "C"], ["B", "C"]]  # lexicographic
    assert Dag.from_json(text) == dag
    assert dag.to_json() == Dag.from_json(text).to_json()  # byte-stable


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_random_growth_stays_sortable(n, data):
    dag = Dag(VariableSet(f"V{i}" for i in range(n)))
    for _ in range(data.draw(st.integers(0, 10))):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        if u == v:
            continue
        try:
            dag = add_edge_checked(dag, u, v)
        except (CycleError, DuplicateEdgeError):
            continue
    order = topological_order(dag)
    pos = {node: k for k, node in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in dag.edges)
