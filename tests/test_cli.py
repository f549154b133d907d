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
        circ = tmp_path / "c.txt"
        phys = tmp_path / "p.txt"
        prov = tmp_path / "prov.json"
        run("build", "--ansatz", "real_amplitudes", "--qubits", "2", "--reps", "1", "--out", circ)
        code = run(
            "transpile", "--in", circ, "--backend", "line:2", "--out", phys,
            "--provenance", prov, "--reps", "1",
        )
        assert code == 0
        expected = transpile(load_circuit(circ), make_line(2))
        assert load_circuit(phys) == expected.physical
        payload = json.loads(prov.read_text())
        assert set(payload) == {str(i) for i in range(expected.physical.num_symbols)}
        kinds = {entry["kind"] for entry in payload.values()}
        assert kinds == {"logical", "const"}
        logical_entries = [e for e in payload.values() if e["kind"] == "logical"]
        assert all(e["coeff"] in (1, -1) for e in logical_entries)
        assert "final layout" in capsys.readouterr().out

    def test_stdout_and_files_pinned(self, tmp_path, capsys):
        # ttn n=4 L=2 on line:6 under a seeded random layout
        circ, phys, prov = tmp_path / "c.txt", tmp_path / "p.txt", tmp_path / "prov.json"
        run("build", "--ansatz", "ttn", "--qubits", "4", "--reps", "2", "--out", circ)
        capsys.readouterr()
        code = run(
            "transpile", "--in", circ, "--backend", "line:6", "--out", phys,
            "--provenance", prov, "--reps", "2", "--layout-seed", "3",
        )
        assert code == 0
        assert capsys.readouterr().out.replace(str(phys), "p.txt") == (
            "wrote p.txt: 56 1q + 39 2q gates, depth 61, 28 physical parameters\n"
            "deltas: g1q +42, g2q +33, depth +51\n"
            "depth vs repetitions: +59\n"
            "final layout: [5, 3, 4, 2]\n"
        )
        assert hashlib.sha256(prov.read_bytes()).hexdigest() == (
            "c3fdb0f9e4695cfd93ef3847d52468a8cf3c1f6613ade829565104ce80422f9c"
        )
        assert hashlib.sha256(phys.read_bytes()).hexdigest() == (
            "2fed5cd6357726c4659919eba730ed1b7a26352b803b7f767eafd3fc15c4a4a9"
        )

    def test_backend_file_reference(self, tmp_path):
        from vqclab.backend import save_backend

        backend_path = tmp_path / "b.json"
        save_backend(make_line(2), backend_path)
        circ = tmp_path / "c.txt"
        run("build", "--ansatz", "real_amplitudes", "--qubits", "2", "--reps", "1", "--out", circ)
        assert run("transpile", "--in", circ, "--backend", backend_path, "--out", tmp_path / "p.txt") == 0

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

    def test_symbol_derived_with_provenance(self, tmp_path, capsys):
        circ, phys, prov = tmp_path / "c.txt", tmp_path / "p.txt", tmp_path / "prov.json"
        run("build", "--ansatz", "real_amplitudes", "--qubits", "2", "--reps", "1", "--out", circ)
        run("transpile", "--in", circ, "--backend", "line:4", "--out", phys, "--provenance", prov,
            "--layout-seed", "7")
        capsys.readouterr()
        t = transpile(load_circuit(circ), make_line(4), layout_seed=7)
        assert t.initial_layout != (0, 1)
        code = run(
            "gradvar", "--in", phys, "--mode", "symbol-derived", "--provenance", prov,
            "--samples", "60", "--seed", "5", "--cost-qubit", t.cost_qubit,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = grad_variance(reparameterize(t, ReparamMode.SYMBOL_DERIVED), 60, 5, t.cost_qubit)
        assert payload["grad_var"] == expected.grad_var
        assert payload["per_param_var"] == list(expected.per_param_var)

    def test_symbol_derived_without_provenance_fails(self, tmp_path, capsys):
        circ, phys = tmp_path / "c.txt", tmp_path / "p.txt"
        run("build", "--ansatz", "ttn", "--qubits", "4", "--reps", "1", "--out", circ)
        run("transpile", "--in", circ, "--backend", "line:4", "--out", phys)
        capsys.readouterr()
        assert run("gradvar", "--in", phys, "--mode", "symbol-derived", "--samples", "20") == 1
        captured = capsys.readouterr()
        assert "--provenance" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize(
        "prov_text, message",
        [('{"0": {"kind": "const"}}', "malformed provenance"), ("[1, 2]", "malformed provenance"),
         ('{"0": {"kind": "const", "value": 1.0}}', "provenance has 1 entries")],
        ids=["missing-field", "not-a-map", "wrong-length"],
    )
    def test_bad_provenance_fails_cleanly(self, tmp_path, capsys, prov_text, message):
        circ, phys, prov = tmp_path / "c.txt", tmp_path / "p.txt", tmp_path / "prov.json"
        run("build", "--ansatz", "ttn", "--qubits", "2", "--reps", "1", "--out", circ)
        run("transpile", "--in", circ, "--backend", "line:2", "--out", phys)
        prov.write_text(prov_text)
        capsys.readouterr()
        assert run("gradvar", "--in", phys, "--mode", "symbol-derived", "--provenance", prov) == 1
        assert message in capsys.readouterr().err


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
        ],
        ids=["unknown-key", "missing-ansatz", "qubits-not-a-list", "not-an-object"],
    )
    def test_bad_config_fails_cleanly(self, tmp_path, capsys, payload):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(payload))
        csv_path = tmp_path / "results.csv"
        assert run("sweep", "--config", config_path, "--out-csv", csv_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(config_path) in err
        assert not csv_path.exists() and not (tmp_path / "results.jsonl").exists()

    def test_bad_thread_count_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VQCLAB_THREADS", "abc")
        csv_path = tmp_path / "results.csv"
        assert run("sweep", "--config", self.one_cell_config(tmp_path), "--out-csv", csv_path) == 1
        assert "VQCLAB_THREADS" in capsys.readouterr().err
        assert not csv_path.exists() and not (tmp_path / "results.jsonl").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_meta_seeds_fails_cleanly(self, tmp_path, capsys, value):
        csv_path = tmp_path / "results.csv"
        argv = ["sweep", "--config", self.one_cell_config(tmp_path), "--out-csv", csv_path, "--meta-seeds", value]
        assert run(*argv) == 1
        assert "meta_seeds" in capsys.readouterr().err
        assert not csv_path.exists() and not (tmp_path / "results.jsonl").exists()

    def test_resume_without_checkpoint_fails(self, tmp_path, capsys):
        assert run("sweep", "--config", self.one_cell_config(tmp_path), "--resume") == 1
        assert "out_jsonl" in capsys.readouterr().err
        assert not (tmp_path / "results.jsonl").exists()
