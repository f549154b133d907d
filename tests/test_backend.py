import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings

from vqclab.backend import (
    BackendModel,
    DEFAULT_NATIVE_1Q,
    DEFAULT_NATIVE_2Q,
    load_backend,
    make_heavy_hex,
    make_line,
    resolve_backend,
    save_backend,
)
from vqclab.circuit import Circuit, Gate, GateKind
from vqclab.transpiler import transpile

from cases import connected_backends


def degrees(model):
    return [len(model.neighbors(q)) for q in range(model.num_physical)]


class TestMakeLine:
    def test_n3(self):
        assert make_line(3).edges == frozenset({(0, 1), (1, 2)})

    def test_n2(self):
        assert make_line(2).edges == frozenset({(0, 1)})

    def test_n5_degrees(self):
        m = make_line(5)
        assert len(m.edges) == 4
        assert max(degrees(m)) == 2

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_line(1)


class TestMakeHeavyHex:
    def test_2x3(self):
        # 6 row qubits in two chains plus one bridge at column 0:
        # edges (0,1),(1,2),(3,4),(4,5) and (0,6),(3,6)
        m = make_heavy_hex(2, 3)
        assert m.num_physical == 7
        assert m.edges == frozenset({(0, 1), (1, 2), (3, 4), (4, 5), (0, 6), (3, 6)})

    def test_5x11(self):
        m = make_heavy_hex(5, 11)
        assert m.num_physical == 67  # 55 row qubits + 12 bridges

    def test_bridge_columns_alternate(self):
        m = make_heavy_hex(3, 7)
        # gap 0 bridges at c in {0, 4}, gap 1 bridges at c in {2, 6}
        assert m.num_physical == 3 * 7 + 4
        bridge0 = 21
        assert m.has_edge(0, bridge0) and m.has_edge(7, bridge0)

    @pytest.mark.parametrize("rows,cols", [(2, 3), (3, 7), (5, 11), (4, 15)])
    def test_degree_bound(self, rows, cols):
        assert max(degrees(make_heavy_hex(rows, cols))) <= 3

    @pytest.mark.parametrize("rows,cols", [(1, 3), (2, 4), (2, 2), (2, 5)])
    def test_invalid_shape(self, rows, cols):
        with pytest.raises(ValueError):
            make_heavy_hex(rows, cols)


class TestBackendModel:
    def test_default_native_sets(self):
        m = make_line(2)
        assert m.native_1q == DEFAULT_NATIVE_1Q == frozenset({GateKind.RZ, GateKind.SX, GateKind.X})
        assert m.native_2q == DEFAULT_NATIVE_2Q == frozenset({GateKind.CX})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            BackendModel(2, frozenset({(0, 0), (0, 1)}))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected coupling graph"):
            BackendModel(4, frozenset({(0, 1), (2, 3)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            BackendModel(2, frozenset({(0, 2)}))

    def test_edges_normalized(self):
        m = BackendModel(3, frozenset({(1, 0), (2, 1)}))
        assert m.edges == frozenset({(0, 1), (1, 2)})
        assert m.has_edge(1, 0) and m.has_edge(0, 1)

    @pytest.mark.parametrize("endpoint", [2.7, 2.0, True, np.float64(2.0)], ids=["fraction", "float", "bool", "np-float"])
    def test_non_integer_endpoint_rejected(self, endpoint):
        with pytest.raises(ValueError, match="edge endpoint must be an integer"):
            BackendModel(3, frozenset({(0, 1), (1, endpoint)}))

    def test_numpy_integer_endpoints_accepted(self):
        m = BackendModel(3, frozenset({(np.int64(0), np.int32(1)), (np.uint8(2), 1)}))
        assert m.edges == frozenset({(0, 1), (1, 2)})
        assert all(type(q) is int for e in m.edges for q in e)

    # True would build a 1-qubit backend, and 3.5 fail with a TypeError in range()
    @pytest.mark.parametrize("count", [True, 3.5, np.float64(3.0)], ids=["bool", "fraction", "np-float"])
    def test_non_integer_qubit_count_rejected(self, count):
        with pytest.raises(ValueError, match="num_physical must be an integer"):
            BackendModel(count, frozenset())

    def test_numpy_integer_qubit_count_accepted(self):
        m = BackendModel(np.int64(3), frozenset({(0, 1), (1, 2)}))
        assert m == make_line(3) and type(m.num_physical) is int

    def test_no_qubits_rejected(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            BackendModel(0, frozenset())

    def test_compiling_leaves_the_backend_unchanged(self):
        # a sweep's worker threads share one backend, so routing may read it but not write it
        m = make_line(4)
        before = copy.deepcopy(vars(m))
        t = transpile(Circuit(4, (Gate(GateKind.CX, (3, 0)),), 0), m)
        assert t.metrics_after.g2q > t.metrics_before.g2q  # the CX needed SWAPs
        assert vars(m) == before


@pytest.mark.parametrize("model", [make_line(5), make_heavy_hex(2, 3), make_heavy_hex(5, 11)],
                         ids=["line:5", "heavy-hex:2,3", "heavy-hex:5,11"])
def test_distances_match_relaxation(model):
    # relax every edge until no hop count shrinks
    for src in range(model.num_physical):
        hops = [0 if q == src else model.num_physical for q in range(model.num_physical)]
        changed = True
        while changed:
            changed = False
            for a, b in model.edges:
                for u, v in ((a, b), (b, a)):
                    if hops[u] + 1 < hops[v]:
                        hops[v] = hops[u] + 1
                        changed = True
        assert model.distances(src) == dict(enumerate(hops))


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        m = make_heavy_hex(2, 3)
        path = tmp_path / "backend.json"
        save_backend(m, path)
        assert load_backend(path) == m

    def test_self_loop_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_physical": 2, "edges": [[0, 0]], "native_1q": ["RZ"], "native_2q": ["CX"]}))
        with pytest.raises(ValueError, match="self-loop"):
            load_backend(path)

    def test_disconnected_file(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"num_physical": 4, "edges": [[0, 1], [2, 3]], "native_1q": ["RZ"], "native_2q": ["CX"]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="disconnected"):
            load_backend(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"num_physical": 2,\n  "edges": [[0 1]]}')
        with pytest.raises(ValueError, match="line"):
            load_backend(path)

    def test_fractional_qubit_count_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"num_physical": 3.9, "edges": [[0, 1], [1, 2]], "native_1q": ["RZ"], "native_2q": ["CX"]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: num_physical must be an integer, got 3.9")):
            load_backend(path)

    @pytest.mark.parametrize("endpoint", [True, 1.5, [1]], ids=["bool", "float", "list"])
    def test_non_integer_endpoint_names_the_file(self, tmp_path, endpoint):
        path = tmp_path / "bad.json"
        payload = {"num_physical": 3, "edges": [[0, 1], [1, endpoint]], "native_1q": ["RZ"], "native_2q": ["CX"]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: edge endpoint must be an integer, got {endpoint!r}")):
            load_backend(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_physical": 2}))
        with pytest.raises(ValueError, match="missing field"):
            load_backend(path)


@settings(max_examples=40, deadline=None)
@given(connected_backends(12))
def test_save_load_random_connected_graphs(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("backend") / "m.json"
    save_backend(m, path)
    assert load_backend(path) == m


class TestResolveBackend:
    def test_line_ref(self):
        assert resolve_backend("line:4") == make_line(4)

    def test_heavy_hex_ref(self):
        assert resolve_backend("heavy-hex:2,3") == make_heavy_hex(2, 3)

    def test_path_ref(self, tmp_path):
        path = tmp_path / "b.json"
        save_backend(make_line(3), path)
        assert resolve_backend(str(path)) == make_line(3)

    @pytest.mark.parametrize(
        "ref",
        # the digits are ASCII: int() alone reads Arabic-Indic 3 as 3
        ["heavy-hex:5", "heavy-hex:5,11,2", "heavy-hex:5,x", "line:x", "line:", "line:4,4", "line:-3", "line:\u0663",
         "heavy-hex:2,\u0663"],
    )
    def test_bad_ref_names_itself_and_the_forms(self, ref):
        with pytest.raises(ValueError, match=re.escape(f"bad backend {ref!r}: expected line:n, heavy-hex:R,C")):
            resolve_backend(ref)
