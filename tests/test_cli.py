import hashlib
import json
import xml.etree.ElementTree as ET

import pytest

from vqclab.ansatz import build_ttn
from vqclab.circuit import bind, load_circuit
from vqclab.cli import main
from vqclab.grad import ReparamMode, free_all_angles, grad_variance, reparameterize
from vqclab.harness import read_csv
from vqclab.sim import expect_z
from vqclab.transpiler import transpile
from vqclab.backend import make_line


def run(*argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize(
    "text,reason",
    [("qubits:2 symbols:0\nFOO 0\n", "line 2: unknown gate kind 'FOO'"),
     ("qubits:1 symbols:-1\nRZ 0 const:0.5\n", "num_symbols must be >= 0, got -1")],
    ids=["bad-gate", "bad-header-value"],
)
@pytest.mark.parametrize(
    "command",
    [("expect", "--qubit", "0"), ("transpile", "--backend", "line:2", "--out", "p.txt"), ("gradvar",)],
    ids=["expect", "transpile", "gradvar"],
)
def test_bad_circuit_file_error_names_the_file(tmp_path, capsys, monkeypatch, text, reason, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "foo.txt").write_text(text)
    assert run(command[0], "--in", "foo.txt", *command[1:]) == 1
    assert capsys.readouterr().err == f"error: foo.txt: {reason}\n"
    assert not (tmp_path / "p.txt").exists()


class TestBuild:
    def test_writes_loadable_circuit(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        assert run("build", "--ansatz", "ttn", "--qubits", "4", "--reps", "2", "--out", out) == 0
        assert load_circuit(out) == build_ttn(4, 2)
        assert "parameters" in capsys.readouterr().out

    def test_rejects_unknown_ansatz(self, tmp_path):
        with pytest.raises(SystemExit):
            run("build", "--ansatz", "nope", "--qubits", "2", "--reps", "1", "--out", tmp_path / "x")


class TestTranspileCommand:
    def test_files_and_provenance(self, tmp_path, capsys):
        # the compiled circuit file is the whole record of the compile: it
        # keeps the logical symbols and the logical qubit order
        circ = tmp_path / "c.txt"
        phys = tmp_path / "p.txt"
        run("build", "--ansatz", "real_amplitudes", "--qubits", "2", "--reps", "1", "--out", circ)
        code = run("transpile", "--in", circ, "--backend", "line:2", "--out", phys, "--reps", "1")
        assert code == 0
        expected = transpile(load_circuit(circ), make_line(2))
        assert load_circuit(phys) == expected.physical
        assert expected.physical.num_symbols == 4  # the logical symbols
        assert expected.phys_qubits[:2] == expected.final_layout and expected.cost_qubit == 0
        assert "final layout" in capsys.readouterr().out
        # no side file goes with it: --provenance is not an option of either command
        for argv in (("transpile", "--in", circ, "--backend", "line:2", "--out", phys),
                     ("gradvar", "--in", phys)):
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--provenance", tmp_path / "prov.json")
            assert exc.value.code == 2
        assert not (tmp_path / "prov.json").exists()

    @pytest.mark.parametrize("reps", ["-3", "0"])
    def test_reps_must_be_positive(self, tmp_path, capsys, reps):
        circ = tmp_path / "c.txt"
        run("build", "--ansatz", "ttn", "--qubits", "2", "--reps", "1", "--out", circ)
        capsys.readouterr()
        assert run("transpile", "--in", circ, "--backend", "line:2", "--out", tmp_path / "p.txt", "--reps", reps) == 1
        assert capsys.readouterr() == ("", f"error: --reps must be >= 1, got {reps}\n")
        assert not (tmp_path / "p.txt").exists()

    def test_stdout_and_files_pinned(self, tmp_path, capsys):
        # ttn n=4 L=2 on line:6 under a seeded random layout
        circ, phys = tmp_path / "c.txt", tmp_path / "p.txt"
        run("build", "--ansatz", "ttn", "--qubits", "4", "--reps", "2", "--out", circ)
        capsys.readouterr()
        code = run(
            "transpile", "--in", circ, "--backend", "line:6", "--out", phys,
            "--reps", "2", "--layout-seed", "3",
        )
        assert code == 0
        assert capsys.readouterr().out.replace(str(phys), "p.txt") == (
            "wrote p.txt: 56 1q + 39 2q gates, depth 61, 28 physical parameters\n"
            "deltas: g1q +42, g2q +33, depth +51\n"
            "depth vs repetitions: +59\n"
            "final layout: [5, 3, 4, 2]\n"
        )
        assert hashlib.sha256(phys.read_bytes()).hexdigest() == (
            "1b33c9cc3d1a5e6cc13134c31319abc98be19073ad4cfda130d24aab640b4a6d"
        )

    def test_backend_file_reference(self, tmp_path):
        from vqclab.backend import save_backend

        backend_path = tmp_path / "b.json"
        save_backend(make_line(2), backend_path)
        circ = tmp_path / "c.txt"
        run("build", "--ansatz", "real_amplitudes", "--qubits", "2", "--reps", "1", "--out", circ)
        assert run("transpile", "--in", circ, "--backend", backend_path, "--out", tmp_path / "p.txt") == 0

    @pytest.mark.parametrize(
        "payload",
        [[1, 2],
         {"num_physical": 3.9, "edges": [[0, 1], [1, 2]], "native_1q": ["RZ", "SX", "X"], "native_2q": ["CX"]},
         {"num_physical": 3, "edges": [[0, 1], [1, 2.7]], "native_1q": ["RZ", "SX", "X"], "native_2q": ["CX"]},
         {"num_physical": 3, "edges": [[0, 1], [1, True]], "native_1q": ["RZ", "SX", "X"], "native_2q": ["CX"]},
         {"num_physical": 3, "edges": [[0, 1, 2]], "native_1q": ["RZ", "SX", "X"], "native_2q": ["CX"]},
         {"num_physical": 3, "edges": [[0, 1], 2], "native_1q": ["RZ", "SX", "X"], "native_2q": ["CX"]},
         {"num_physical": 3, "edges": [[0, 1], [1, 2]], "native_1q": ["RZ", "SX", "U3"], "native_2q": ["CX"]}],
        ids=["not-an-object", "fractional-count", "fractional-endpoint", "bool-endpoint", "edge-a-triple",
             "edge-not-a-list", "unknown-native-gate"],
    )
    def test_bad_backend_file_fails_cleanly(self, tmp_path, capsys, payload):
        backend_path = tmp_path / "b.json"
        backend_path.write_text(json.dumps(payload))
        circ = tmp_path / "c.txt"
        run("build", "--ansatz", "real_amplitudes", "--qubits", "2", "--reps", "1", "--out", circ)
        capsys.readouterr()
        assert run("transpile", "--in", circ, "--backend", backend_path, "--out", tmp_path / "p.txt") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and str(backend_path) in captured.err
        assert not (tmp_path / "p.txt").exists()

    def test_bad_backend_reference_fails_cleanly(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        run("build", "--ansatz", "ttn", "--qubits", "2", "--reps", "1", "--out", circ)
        capsys.readouterr()
        assert run("transpile", "--in", circ, "--backend", "heavy-hex:5", "--out", tmp_path / "p.txt") == 1
        assert capsys.readouterr().err.startswith("error: bad backend 'heavy-hex:5'")

    def test_unfit_backend_fails_cleanly(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        run("build", "--ansatz", "ttn", "--qubits", "4", "--reps", "1", "--out", circ)
        assert run("transpile", "--in", circ, "--backend", "line:3", "--out", tmp_path / "p.txt") == 1
        assert "does not fit" in capsys.readouterr().err


class TestExpectCommand:
    def test_matches_library(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        run("build", "--ansatz", "ttn", "--qubits", "2", "--reps", "1", "--out", circ)
        theta_file = tmp_path / "theta.txt"
        theta = [0.3, 1.2, 2.5]
        theta_file.write_text("\n".join(str(t) for t in theta))
        capsys.readouterr()
        assert run("expect", "--in", circ, "--theta", theta_file, "--qubit", "0") == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(expect_z(bind(build_ttn(2, 1), theta), 0))

    def test_non_finite_theta_fails_cleanly(self, tmp_path, capsys):
        circ, theta_file = tmp_path / "c.txt", tmp_path / "theta.txt"
        run("build", "--ansatz", "ttn", "--qubits", "2", "--reps", "1", "--out", circ)
        theta_file.write_text("0.3 nan 2.5")
        capsys.readouterr()
        assert run("expect", "--in", circ, "--theta", theta_file, "--qubit", "0") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_qubit_is_required(self, tmp_path, capsys):
        # ttn n=4 L=1 under this layout compiles to 8 qubits; --qubit names the one to read
        circ, phys, theta_file = tmp_path / "c.txt", tmp_path / "p.txt", tmp_path / "theta.txt"
        run("build", "--ansatz", "ttn", "--qubits", "4", "--reps", "1", "--out", circ)
        run("transpile", "--in", circ, "--backend", "line:8", "--out", phys, "--layout-seed", "3")
        physical = load_circuit(phys)
        theta = [0.1 + 0.3 * i for i in range(physical.num_symbols)]
        theta_file.write_text(" ".join(repr(t) for t in theta))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("expect", "--in", phys, "--theta", theta_file)
        assert exc.value.code != 0
        assert "--qubit" in capsys.readouterr().err
        assert run("expect", "--in", phys, "--theta", theta_file, "--qubit", "7") == 0
        assert float(capsys.readouterr().out) == expect_z(bind(physical, theta), 7)

    def test_compiled_circuit_takes_the_logical_theta(self, tmp_path, capsys):
        # the compiled file binds from the logical parameter file, and reads
        # the logical circuit's <Z_q> on its qubit q, the cost qubit 0 included
        circ, phys, theta_file = (tmp_path / name for name in ("c.txt", "p.txt", "theta.txt"))
        run("build", "--ansatz", "ttn", "--qubits", "4", "--reps", "1", "--out", circ)
        run("transpile", "--in", circ, "--backend", "line:8", "--out", phys, "--layout-seed", "3")
        logical = load_circuit(circ)
        theta = [0.1 + 0.3 * i for i in range(logical.num_symbols)]
        theta_file.write_text(" ".join(repr(t) for t in theta))
        capsys.readouterr()
        for q in range(logical.num_qubits):
            assert run("expect", "--in", phys, "--theta", theta_file, "--qubit", q) == 0
            assert float(capsys.readouterr().out) == pytest.approx(expect_z(bind(logical, theta), q), abs=1e-12)

    def test_bad_theta_token_names_the_file(self, tmp_path, capsys):
        circ, theta_file = tmp_path / "c.txt", tmp_path / "theta.txt"
        run("build", "--ansatz", "ttn", "--qubits", "2", "--reps", "1", "--out", circ)
        theta_file.write_text("0.3 abc 2.5")
        capsys.readouterr()
        assert run("expect", "--in", circ, "--theta", theta_file, "--qubit", "0") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {theta_file}: ") and "'abc'" in err

    # float() alone reads these as 10 and 3
    @pytest.mark.parametrize("token", ["1_0", "\u0663"], ids=["underscore", "arabic-indic"])
    def test_theta_numbers_are_ascii_without_underscores(self, tmp_path, capsys, token):
        circ, theta_file = tmp_path / "c.txt", tmp_path / "theta.txt"
        run("build", "--ansatz", "ttn", "--qubits", "2", "--reps", "1", "--out", circ)
        theta_file.write_text(f"0.5 {token} 0.25", encoding="utf-8")
        capsys.readouterr()
        assert run("expect", "--in", circ, "--theta", theta_file, "--qubit", "0") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {theta_file}: ") and repr(token) in err


# int() alone reads each of these values (3 and 10)
@pytest.mark.parametrize("value", ["\u0663", "1_0", "+3", " 3"], ids=["arabic-indic", "underscore", "plus", "space"])
@pytest.mark.parametrize(
    "command, flag",
    [(("build", "--ansatz", "ttn", "--qubits", "3", "--reps", "1", "--out", "c.txt"), "--qubits"),
     (("build", "--ansatz", "ttn", "--qubits", "3", "--reps", "1", "--out", "c.txt"), "--reps"),
     (("expect", "--in", "c.txt", "--qubit", "0"), "--qubit"),
     (("gradvar", "--in", "c.txt", "--samples", "20"), "--samples"),
     (("transpile", "--in", "c.txt", "--backend", "line:3", "--out", "p.txt", "--layout-seed", "1"), "--layout-seed")],
    ids=["qubits", "reps", "qubit", "samples", "layout-seed"],
)
def test_integer_flags_are_ascii_digits(tmp_path, capsys, monkeypatch, command, flag, value):
    monkeypatch.chdir(tmp_path)
    argv = list(command)
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert f"argument {flag}: invalid parse_int value: {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "c.txt").exists() and not (tmp_path / "p.txt").exists()


class TestGradvarCommand:
    def test_all_angles_matches_library(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        run("build", "--ansatz", "real_amplitudes", "--qubits", "2", "--reps", "1", "--out", circ)
        capsys.readouterr()
        assert run("gradvar", "--in", circ, "--samples", "60", "--seed", "5") == 0
        payload = json.loads(capsys.readouterr().out)
        expected = grad_variance(free_all_angles(load_circuit(circ)), 60, 5, 0)
        assert payload["grad_var"] == pytest.approx(expected.grad_var)
        assert payload["samples"] == 60
        assert payload["stderr"] == pytest.approx(expected.stderr)

    def test_non_finite_angle_in_the_file_fails_cleanly(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        circ.write_text("qubits:1 symbols:1\nRZ 0 const:inf\nRY 0 affine:0:+1:0.0\n")
        assert run("gradvar", "--in", circ, "--samples", "10") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 2" in err

    def test_symbol_derived_with_provenance(self, tmp_path, capsys):
        # the compiled file alone carries what symbol-derived mode needs
        circ, phys = tmp_path / "c.txt", tmp_path / "p.txt"
        run("build", "--ansatz", "real_amplitudes", "--qubits", "2", "--reps", "1", "--out", circ)
        run("transpile", "--in", circ, "--backend", "line:4", "--out", phys, "--layout-seed", "7")
        capsys.readouterr()
        t = transpile(load_circuit(circ), make_line(4), layout_seed=7)
        assert t.initial_layout != (0, 1)
        code = run("gradvar", "--in", phys, "--mode", "symbol-derived", "--samples", "60", "--seed", "5")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = grad_variance(reparameterize(t, ReparamMode.SYMBOL_DERIVED), 60, 5, 0)
        assert payload["grad_var"] == expected.grad_var
        assert payload["per_param_var"] == list(expected.per_param_var)

    @pytest.mark.parametrize("mode", list(ReparamMode), ids=lambda m: m.value)
    def test_cost_qubit_comes_from_provenance(self, tmp_path, capsys, mode):
        # ttn n=4 L=1 under this layout ends with logical qubit 0 on device
        # qubit 7, which the compile numbers 0
        circ, phys = tmp_path / "c.txt", tmp_path / "p.txt"
        run("build", "--ansatz", "ttn", "--qubits", "4", "--reps", "1", "--out", circ)
        run("transpile", "--in", circ, "--backend", "line:8", "--out", phys, "--layout-seed", "3")
        capsys.readouterr()
        t = transpile(load_circuit(circ), make_line(8), layout_seed=3)
        assert t.final_layout == (7, 5, 6, 0) and t.phys_qubits[0] == 7 and t.cost_qubit == 0
        assert run("gradvar", "--in", phys, "--mode", mode.value, "--samples", "20") == 0
        payload = json.loads(capsys.readouterr().out)
        expected = grad_variance(reparameterize(t, mode), 20, 42, 0)
        assert payload["grad_var"] == expected.grad_var
        assert payload["per_param_var"] == list(expected.per_param_var)
        # an explicit --cost-qubit reads another qubit
        assert run("gradvar", "--in", phys, "--mode", mode.value, "--samples", "20", "--cost-qubit", "1") == 0
        assert json.loads(capsys.readouterr().out)["grad_var"] == (
            grad_variance(reparameterize(t, mode), 20, 42, 1).grad_var
        )

    def test_compiled_file_gives_the_logical_gradvar(self, tmp_path, capsys):
        # over the logical symbols, the compiled circuit is the logical one
        # up to global phase, so its GradVar differs by rounding only
        circ, phys = tmp_path / "c.txt", tmp_path / "p.txt"
        run("build", "--ansatz", "ttn", "--qubits", "4", "--reps", "1", "--out", circ)
        run("transpile", "--in", circ, "--backend", "line:8", "--out", phys, "--layout-seed", "3")
        capsys.readouterr()
        payloads = []
        for path in (circ, phys):
            assert run("gradvar", "--in", path, "--mode", "symbol-derived") == 0
            payloads.append(json.loads(capsys.readouterr().out))
        logical, compiled = payloads
        tol = 1e-14 * logical["grad_var"]
        assert abs(compiled["grad_var"] - logical["grad_var"]) <= tol
        assert len(compiled["per_param_var"]) == len(logical["per_param_var"])
        for a, b in zip(compiled["per_param_var"], logical["per_param_var"]):
            assert abs(a - b) <= tol


class TestSweepCommand:
    def test_end_to_end_outputs(self, tmp_path, capsys):
        config = {
            "ansatz": ["real_amplitudes"],
            "qubits": [2, 3],
            "reps": [1],
            "samples": 30,
            "base_seed": 3,
            "backend": "line:3",
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        csv_path = tmp_path / "results.csv"
        out_dir = tmp_path / "maps"
        code = run("sweep", "--config", config_path, "--out-csv", csv_path, "--out-dir", out_dir)
        assert code == 0
        records = read_csv(csv_path)
        assert len(records) == 2
        svg = out_dir / "delta_gradvar_real_amplitudes.svg"
        assert svg.exists()
        ET.parse(svg)
        assert (tmp_path / "results.jsonl").exists()
        out = capsys.readouterr().out
        assert "[2/2]" in out

    def test_missing_config_fails(self, tmp_path, capsys):
        assert run("sweep", "--config", tmp_path / "nope.json") == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def one_cell_config(tmp_path):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps({"ansatz": ["ttn"], "qubits": [2], "reps": [1], "backend": "line:2"}))
        return config_path

    @pytest.mark.parametrize(
        "payload",
        [
            {"ansatz": ["ttn"], "qubits": [2], "reps": [1], "sampels": 20},
            {"qubits": [2], "reps": [1]},
            {"ansatz": ["ttn"], "qubits": 3, "reps": [1]},
            [1, 2],
            {"ansatz": "ttn", "qubits": [2], "reps": [1]},
            {"ansatz": ["ttn"], "qubits": [2], "reps": [1], "samples": 10.5},
            {"ansatz": ["ttn"], "qubits": [2], "reps": [1], "base_seed": 1.5},
            {"ansatz": ["ttn"], "qubits": [2.0], "reps": [1]},
            {"ansatz": ["ttn"], "qubits": [2], "reps": [1], "samples": 1},
            '{"ansatz": ["ttn"],',
            {"ansatz": ["ttn"], "qubits": [2, 2], "reps": [1]},
            # the CSV and the heatmap directory are named by the flags alone
            {"ansatz": ["ttn"], "qubits": [2], "reps": [1], "out_csv": "results.csv"},
            {"ansatz": ["ttn"], "qubits": [2], "reps": [1], "out_dir": "maps"},
        ],
        ids=["unknown-key", "missing-ansatz", "qubits-not-a-list", "not-an-object", "ansatz-a-string",
             "fractional-samples", "fractional-base-seed", "float-qubits", "too-few-samples", "not-json",
             "repeated-qubits", "out-csv-field", "out-dir-field"],
    )
    def test_bad_config_fails_cleanly(self, tmp_path, capsys, monkeypatch, payload):
        # a string payload is the file's raw text; a relative path in one lands here
        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "sweep.json"
        config_path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        csv_path = tmp_path / "results.csv"
        assert run("sweep", "--config", config_path, "--out-csv", csv_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(config_path) in err
        assert not csv_path.exists() and not (tmp_path / "results.jsonl").exists()

    @pytest.mark.parametrize("with_out_dir", [False, True], ids=["csv-only", "with-out-dir"])
    def test_failed_cell_exits_nonzero(self, tmp_path, capsys, with_out_dir):
        # ttn n=4 does not fit line:3, so the only cell fails
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(
            {"ansatz": ["ttn"], "qubits": [4], "reps": [1], "samples": 10, "backend": "line:3"}
        ))
        argv = ["sweep", "--config", config_path, "--out-csv", tmp_path / "results.csv"]
        if with_out_dir:
            argv += ["--out-dir", tmp_path / "maps"]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert f"1 cell(s) failed; see the JSONL checkpoint {tmp_path / 'results.jsonl'} for details" in captured.out
        if with_out_dir:
            assert "no records for ansatz 'ttn'" in captured.err

    def test_failed_cell_without_outputs_names_no_checkpoint(self, tmp_path, capsys, monkeypatch):
        # ttn n=3 does not fit line:2; with no output flag no file is written,
        # so the reason is only on the progress line
        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(
            {"ansatz": ["ttn"], "qubits": [3], "reps": [1], "samples": 4, "backend": "line:2"}
        ))
        assert run("sweep", "--config", config_path) == 1
        out = capsys.readouterr().out
        assert "[1/1] ttn n=3 L=1 error: " in out
        assert "1 cell(s) failed; no checkpoint was kept, so each reason is on its progress line above" in out
        assert list(tmp_path.iterdir()) == [config_path]

    def test_out_csv_implies_checkpoint_next_to_it(self, tmp_path, capsys):
        jsonl = tmp_path / "results.jsonl"
        argv = ["sweep", "--config", self.one_cell_config(tmp_path), "--out-csv", tmp_path / "results.csv"]
        assert run(*argv) == 0
        first = (tmp_path / "results.csv").read_bytes()
        assert len(jsonl.read_text().splitlines()) == 1
        assert run(*argv, "--resume") == 0
        assert (tmp_path / "results.csv").read_bytes() == first
        assert len(jsonl.read_text().splitlines()) == 1

    def test_config_out_jsonl_wins_over_the_out_csv_neighbour(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps({"ansatz": ["ttn"], "qubits": [2], "reps": [1], "backend": "line:2",
                                           "out_jsonl": str(tmp_path / "cells.jsonl")}))
        assert run("sweep", "--config", config_path, "--out-csv", tmp_path / "results.csv") == 0
        assert len((tmp_path / "cells.jsonl").read_text().splitlines()) == 1
        assert not (tmp_path / "results.jsonl").exists()

    @pytest.mark.parametrize("configured", [False, True], ids=["derived", "configured"])
    def test_out_csv_may_not_be_the_checkpoint(self, tmp_path, capsys, monkeypatch, configured):
        # the checkpoint is the .jsonl next to --out-csv, or the config's
        # relative out_jsonl; a CSV written over it would end every --resume
        monkeypatch.chdir(tmp_path)
        payload = {"ansatz": ["ttn"], "qubits": [2], "reps": [1], "backend": "line:2"}
        if configured:
            payload["out_jsonl"] = "x.csv"
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(payload))
        checkpoint = "x.csv" if configured else "r.jsonl"
        assert run("sweep", "--config", config_path, *([] if configured else ["--out-csv", "r.csv"])) == 0
        kept = (tmp_path / checkpoint).read_bytes()
        out_csv = tmp_path / "x.csv" if configured else "r.jsonl"
        assert run("sweep", "--config", config_path, "--out-csv", out_csv) == 1
        assert capsys.readouterr().err == f"error: --out-csv {out_csv} is the checkpoint {checkpoint}; name another CSV\n"
        assert (tmp_path / checkpoint).read_bytes() == kept

    @pytest.mark.parametrize("newline", [True, False], ids=["newline", "no-newline"])
    @pytest.mark.parametrize("role", ["out-csv", "out-jsonl"])
    def test_the_config_is_neither_the_csv_nor_the_checkpoint(self, tmp_path, capsys, monkeypatch, role, newline):
        # a CSV written over the config leaves nothing to rerun; a checkpoint
        # that is the config has records appended to it, and a config with no
        # final newline is cut off whole as an unterminated line
        monkeypatch.chdir(tmp_path)
        payload = {"ansatz": ["ttn"], "qubits": [2], "reps": [1], "backend": "line:2"}
        if role == "out-jsonl":
            payload["out_jsonl"] = "sweep.json"
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(payload) + ("\n" if newline else ""))
        kept = config_path.read_bytes()
        if role == "out-csv":
            assert run("sweep", "--config", "sweep.json", "--out-csv", config_path) == 1
            expected = f"--out-csv {config_path} is the config sweep.json; name another CSV"
        else:
            assert run("sweep", "--config", config_path) == 1
            expected = f"the checkpoint sweep.json is the config {config_path}; name another out_jsonl"
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert config_path.read_bytes() == kept

    def test_bad_thread_count_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VQCLAB_THREADS", "abc")
        csv_path = tmp_path / "results.csv"
        assert run("sweep", "--config", self.one_cell_config(tmp_path), "--out-csv", csv_path) == 1
        assert "VQCLAB_THREADS" in capsys.readouterr().err
        assert not csv_path.exists() and not (tmp_path / "results.jsonl").exists()

    def test_resume_without_checkpoint_fails(self, tmp_path, capsys):
        assert run("sweep", "--config", self.one_cell_config(tmp_path), "--resume") == 1
        assert "out_jsonl" in capsys.readouterr().err
        assert not (tmp_path / "results.jsonl").exists()
