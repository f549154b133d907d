import hashlib
import json
import os
import re
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqclab import harness
from vqclab.backend import BackendModel, backend_payload, make_line, resolve_backend, save_backend
from vqclab.grad import grad_variance
from vqclab.harness import (
    CELL_SEED_STRIDE,
    CSV_HEADER,
    SweepConfig,
    SweepRecord,
    cell_seed,
    default_sweep_config,
    emit_csv,
    emit_heatmap_svg,
    enumerate_cells,
    read_csv,
    run_cell,
    run_sweep,
)


def tiny_config(**overrides):
    base = dict(
        ansatz=["real_amplitudes"],
        qubits=[2],
        reps=[1],
        samples=50,
        base_seed=9,
        backend="line:2",
    )
    base.update(overrides)
    return SweepConfig(**base)


def resume_grid(**overrides):
    return tiny_config(ansatz=["ttn", "real_amplitudes"], qubits=[2, 3], reps=[1, 2], samples=20, backend="line:3",
                       **overrides)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The checkpoint bytes and the CSV bytes of an uninterrupted run of
    ``resume_grid``."""
    out = tmp_path_factory.mktemp("uninterrupted")
    cfg = resume_grid(out_jsonl=str(out / "results.jsonl"))
    emit_csv(run_sweep(cfg), out / "results.csv")
    return Path(cfg.out_jsonl).read_bytes(), (out / "results.csv").read_bytes()


class TestConfig:
    def test_default_config(self):
        cfg = default_sweep_config()
        assert cfg.qubits == (2, 4, 6, 8, 10)
        assert cfg.reps == (1, 2, 4, 6, 8, 10)
        assert cfg.samples == 200
        assert cfg.backend == "heavy-hex:5,11"
        assert cfg.mode == "all-angles"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(ansatz=[]),
            dict(qubits=[1]),
            dict(reps=[0]),
            dict(samples=1),
            dict(mode="nope"),
            dict(ansatz=["real_amplitudes", "tnn"]),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)

    @pytest.mark.parametrize(
        "grid, message",
        [
            (dict(ansatz=["ttn", "ttn"], qubits=[2, 2]), "ansatz repeats 'ttn'"),
            (dict(qubits=[2, 4, 2]), "qubits repeats 2"),
            (dict(reps=[1, 2, 1]), "reps repeats 1"),
        ],
        ids=["ansatz", "qubits", "reps"],
    )
    def test_repeated_grid_value_is_rejected(self, grid, message):
        # a repeat would run the same cell again under another seed, and the
        # heatmap would keep only the last of them
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_config(**grid)

    def test_meta_seeds_is_an_unknown_field(self):
        with pytest.raises(TypeError, match="meta_seeds"):
            tiny_config(meta_seeds=1)

    def test_the_checkpoint_is_the_one_output_path(self):
        # the sweep writes only its checkpoint; its caller writes the CSV and
        # the heatmaps, so a config naming out_csv or out_dir is refused
        assert [f.name for f in fields(SweepConfig)] == [
            "ansatz", "qubits", "reps", "samples", "base_seed", "backend", "mode", "out_jsonl"]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(ansatz="ttn"), "ansatz must be list[str]"),
            (dict(qubits=[2, True]), "qubits must be list[int]"),
            (dict(samples=True), "samples must be int"),
            (dict(base_seed=2.0), "base_seed must be int"),
            (dict(backend=None), "backend must be str"),
            (dict(out_jsonl=1), "out_jsonl must be str | None"),
            (dict(samples="50"), "samples must be int"),
            (dict(reps=[1.0]), "reps must be list[int]"),
        ],
    )
    def test_each_field_checked_against_its_annotation(self, bad, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            tiny_config(**bad)

    def test_numpy_integers_fill_int_fields(self, tmp_path):
        # a count is what as_index takes, as in grad_variance; it is stored
        # as a Python int, so the checkpoint line is still JSON
        cfg = tiny_config(samples=np.int64(50), base_seed=np.int32(9), out_jsonl=str(tmp_path / "c.jsonl"))
        assert (type(cfg.samples), type(cfg.base_seed)) == (int, int)
        assert cfg == tiny_config(out_jsonl=str(tmp_path / "c.jsonl"))
        assert run_sweep(cfg)[0].error is None
        assert json.loads((tmp_path / "c.jsonl").read_text())["samples"] == 50

    def test_numpy_integers_fill_list_fields(self, tmp_path):
        cfg = tiny_config(qubits=[np.int64(2)], reps=(np.int16(1),), out_jsonl=str(tmp_path / "c.jsonl"))
        assert [type(x) for x in (*cfg.qubits, *cfg.reps)] == [int, int]
        assert cfg == tiny_config(out_jsonl=str(tmp_path / "c.jsonl"))
        record = run_sweep(cfg)[0]
        assert record.error is None and type(record.n) is int
        assert json.loads((tmp_path / "c.jsonl").read_text())["record"]["n"] == 2

    def test_tuples_fill_list_fields(self):
        assert enumerate_cells(tiny_config(qubits=(2, 3))) == enumerate_cells(tiny_config(qubits=[2, 3]))

    def test_config_cannot_change_after_its_checks(self, tmp_path):
        # every worker of a sweep reads the one config, so it stays what was checked
        cfg = tiny_config(ansatz=["ttn", "real_amplitudes"])
        with pytest.raises(FrozenInstanceError):
            cfg.ansatz = "ttn"
        assert (cfg.ansatz, cfg.qubits, cfg.reps) == (("ttn", "real_amplitudes"), (2,), (1,))
        with pytest.raises(AttributeError):
            cfg.qubits.append(1)
        assert replace(cfg, out_jsonl=str(tmp_path / "r.jsonl")).out_jsonl == str(tmp_path / "r.jsonl")
        with pytest.raises(ValueError, match="qubit counts must be >= 2"):
            replace(cfg, qubits=[1])


class TestCellEnumeration:
    def test_ansatz_major_order(self):
        cfg = tiny_config(ansatz=["ttn", "real_amplitudes"], qubits=[2, 3], reps=[1, 2])
        cells = enumerate_cells(cfg)
        assert [(kind, n, reps) for _, kind, n, reps, _ in cells] == [
            ("ttn", 2, 1),
            ("ttn", 2, 2),
            ("ttn", 3, 1),
            ("ttn", 3, 2),
            ("real_amplitudes", 2, 1),
            ("real_amplitudes", 2, 2),
            ("real_amplitudes", 3, 1),
            ("real_amplitudes", 3, 2),
        ]
        assert [seed for _, _, _, _, seed in cells] == [
            cfg.base_seed + CELL_SEED_STRIDE * i for i in range(8)
        ]

    def test_cell_seed(self):
        assert cell_seed(10, 3) == 10 + 3 * CELL_SEED_STRIDE


class TestRunSweep:
    def test_single_cell_record(self):
        records = run_sweep(tiny_config())
        assert len(records) == 1
        r = records[0]
        assert r.error is None
        assert (r.ansatz, r.n, r.reps) == ("real_amplitudes", 2, 1)
        assert r.delta_g2q == 0
        assert r.p_log == 4
        assert r.delta_gradvar == r.gradvar_phys - r.gradvar_log
        assert r.seed == 9
        assert r.wall_time > 0

    def test_error_cell_isolated(self):
        cfg = tiny_config(qubits=[4, 2], backend="line:3")
        records = run_sweep(cfg)
        assert len(records) == 2
        assert records[0].error is not None and "does not fit" in records[0].error
        assert records[1].error is None

    def test_error_names_its_exception_type(self, monkeypatch):
        def failing(*args, **kwargs):
            raise KeyError("x")

        monkeypatch.setattr(harness, "grad_variance", failing)
        assert run_cell(tiny_config(), make_line(3), "ttn", 2, 1, 9).error == "KeyError: 'x'"
        unfit = run_cell(tiny_config(), make_line(3), "efficient_su2", 10, 2, 9)
        assert unfit.error.startswith("ValueError: ") and "does not fit" in unfit.error

    def test_unfit_cell_runs_no_gradient(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return grad_variance(*args, **kwargs)

        monkeypatch.setattr(harness, "grad_variance", counting)
        record = run_cell(tiny_config(), make_line(3), "efficient_su2", 10, 2, 9)
        assert "does not fit" in record.error
        assert calls == []
        assert run_cell(tiny_config(), make_line(3), "ttn", 2, 1, 9).error is None
        assert len(calls) == 2  # one logical and one physical GradVar

    def test_deterministic_across_thread_counts(self, tmp_path, monkeypatch):
        cfg = tiny_config(ansatz=["ttn", "real_amplitudes"], qubits=[2, 3], backend="line:3", samples=30)
        monkeypatch.setenv("VQCLAB_THREADS", "1")
        serial = run_sweep(cfg)
        monkeypatch.setenv("VQCLAB_THREADS", "4")
        parallel = run_sweep(cfg)
        # wall_time is a measurement; everything else must agree exactly
        assert [replace(r, wall_time=0.0) for r in serial] == [
            replace(r, wall_time=0.0) for r in parallel
        ]

    def test_checkpoint_and_progress_in_cell_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VQCLAB_THREADS", "2")

        def first_cell_slow(config, backend, kind, n, reps, seed):
            if seed == config.base_seed:
                time.sleep(0.3)
            return run_cell(config, backend, kind, n, reps, seed)

        monkeypatch.setattr(harness, "run_cell", first_cell_slow)
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(qubits=[2, 3], reps=[1, 2], backend="line:3", samples=20, out_jsonl=str(jsonl))
        seen = []
        records = run_sweep(cfg, progress=lambda rec, done, total: seen.append((rec.n, rec.reps, done, total)))
        order = [(n, reps) for _, _, n, reps, _ in enumerate_cells(cfg)]
        assert seen == [(n, reps, done, 4) for done, (n, reps) in enumerate(order, start=1)]
        lines = [json.loads(l)["record"] for l in jsonl.read_text().splitlines()]
        assert [(l["n"], l["reps"]) for l in lines] == order
        assert [(r.n, r.reps) for r in records] == order

    def test_csv_bytes_reproducible(self, tmp_path):
        cfg = tiny_config(ansatz=["ttn"], qubits=[2, 3], samples=40, backend="line:3")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), a)
        emit_csv(run_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_checkpoint_and_resume(self, tmp_path):
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(out_jsonl=str(jsonl))
        first = run_sweep(cfg)
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["record"]["ansatz"] == "real_amplitudes"
        assert lines[0]["samples"] == cfg.samples
        resumed = run_sweep(cfg, resume=True)
        assert resumed == first
        # resume reused the checkpoint instead of appending a new line
        assert len(jsonl.read_text().splitlines()) == 1

    @pytest.mark.parametrize("change", [{"samples": 40}, {"backend": "line:3"}, {"mode": "symbol-derived"}],
                             ids=["samples", "backend", "mode"])
    def test_resume_reruns_a_cell_of_another_run(self, tmp_path, monkeypatch, change):
        # a line written under other run fields is not this run's result
        jsonl = tmp_path / "cells.jsonl"
        run_sweep(tiny_config(out_jsonl=str(jsonl)))
        cfg = tiny_config(out_jsonl=str(jsonl), **change)
        calls = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: calls.append(args) or run_cell(*args))
        resumed = run_sweep(cfg, resume=True)
        assert len(calls) == 1
        assert [replace(r, wall_time=0.0) for r in resumed] == [replace(r, wall_time=0.0) for r in run_sweep(cfg)]
        assert len(jsonl.read_text().splitlines()) == 3

    def test_resume_reruns_a_cell_of_an_edited_backend_file(self, tmp_path, monkeypatch):
        # the line names the same file, but the device in it is another one
        device = tmp_path / "dev.json"
        save_backend(make_line(3), device)
        cfg = tiny_config(ansatz=["ttn"], qubits=[3], backend=str(device), out_jsonl=str(tmp_path / "cells.jsonl"))
        assert run_sweep(cfg)[0].g2q_phys == 5
        save_backend(BackendModel(3, frozenset({(0, 1), (1, 2), (0, 2)})), device)
        calls = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: calls.append(args) or run_cell(*args))
        resumed = run_sweep(cfg, resume=True)
        assert len(calls) == 1
        assert resumed[0].g2q_phys == 2
        assert [replace(r, wall_time=0.0) for r in resumed] == [replace(r, wall_time=0.0) for r in run_sweep(cfg)]

    def test_resume_reruns_a_line_without_a_device(self, tmp_path, monkeypatch):
        # lines written before the device joined the run identity run their
        # cells again, once; so do the older lines that carry "meta_seeds"
        # (from sweeps that averaged GradVar over several seeds), whatever its value
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(out_jsonl=str(jsonl))
        first = run_sweep(cfg)
        payload = json.loads(jsonl.read_text())
        del payload["device"]
        calls = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: calls.append(args) or run_cell(*args))
        for old in (payload, {**payload, "meta_seeds": 3}):
            jsonl.write_text(json.dumps(old) + "\n")
            calls.clear()
            resumed = run_sweep(cfg, resume=True)
            assert len(calls) == 1
            assert run_sweep(cfg, resume=True) == resumed
            assert len(calls) == 1
            assert [replace(r, wall_time=0.0) for r in resumed] == [replace(r, wall_time=0.0) for r in first]

    def test_resume_reruns_a_line_that_holds_the_device_payload(self, tmp_path, monkeypatch):
        # lines that held the backend's content itself under "device", before
        # its digest, run their cells again, once
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(out_jsonl=str(jsonl))
        first = run_sweep(cfg)
        payload = json.loads(jsonl.read_text())
        payload["device"] = backend_payload(resolve_backend(cfg.backend))
        jsonl.write_text(json.dumps(payload, sort_keys=True) + "\n")
        calls = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: calls.append(args) or run_cell(*args))
        resumed = run_sweep(cfg, resume=True)
        assert len(calls) == 1
        assert run_sweep(cfg, resume=True) == resumed
        assert len(calls) == 1
        assert [replace(r, wall_time=0.0) for r in resumed] == [replace(r, wall_time=0.0) for r in first]
        assert len(jsonl.read_text().splitlines()) == 2

    def test_checkpoint_line_keys_pinned(self, tmp_path):
        jsonl = tmp_path / "cells.jsonl"
        run_sweep(tiny_config(out_jsonl=str(jsonl)))
        payload = json.loads(jsonl.read_text())
        assert sorted(payload) == ["backend", "device", "mode", "record", "samples"]
        assert payload["backend"] == "line:2"
        # the sha256 of the device's canonical JSON, not the JSON itself
        canonical = '{"edges":[[0,1]],"native_1q":["RZ","SX","X"],"native_2q":["CX"],"num_physical":2}'
        assert payload["device"] == hashlib.sha256(canonical.encode()).hexdigest()
        assert payload["device"] == "3e1aa4a31f401b8855411d349ad96647a09cdf26003ae6a5502125a23ac49785"
        assert set(payload["record"]) == {
            "ansatz", "n", "reps", "p_log", "p_phys", "g1q_log", "g1q_phys", "g2q_log", "g2q_phys",
            "depth_log", "depth_phys", "delta_g1q", "delta_g2q", "delta_depth_dag", "delta_depth_paper",
            "gradvar_log", "gradvar_phys", "delta_gradvar", "stderr_log", "stderr_phys", "seed",
            "wall_time", "error",
        }

    def test_resume_skips_torn_last_line(self, tmp_path):
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(qubits=[2, 3], backend="line:3", out_jsonl=str(jsonl))
        first = run_sweep(cfg)
        complete = jsonl.read_text().splitlines(keepends=True)
        # a crash while writing the second record leaves half a line behind
        jsonl.write_text(complete[0] + complete[1][: len(complete[1]) // 2])
        with pytest.warns(RuntimeWarning, match="unterminated last line"):
            resumed = run_sweep(cfg, resume=True)
        assert [replace(r, wall_time=0.0) for r in resumed] == [replace(r, wall_time=0.0) for r in first]
        assert resumed[0] == first[0]  # reused, not recomputed
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]  # every line parses again
        assert len(lines) == 2
        assert run_sweep(cfg, resume=True) == resumed

    def test_resume_skips_blank_lines(self, tmp_path, monkeypatch):
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(qubits=[2, 3], backend="line:3", out_jsonl=str(jsonl))
        first = run_sweep(cfg)
        a, b = jsonl.read_text().splitlines(keepends=True)
        jsonl.write_text("\n" + a + "  \n" + b)
        monkeypatch.setattr(harness, "run_cell", lambda *args: pytest.fail("a checkpointed cell ran again"))
        assert run_sweep(cfg, resume=True) == first

    def test_resume_rejects_malformed_complete_line(self, tmp_path):
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(out_jsonl=str(jsonl))
        run_sweep(cfg)
        jsonl.write_text("{not json\n" + jsonl.read_text())
        with pytest.raises(ValueError, match="cells.jsonl:1"):
            run_sweep(cfg, resume=True)

    @pytest.mark.parametrize("line", ["[1]", '{"samples": 50}', '{"record": [1]}'],
                             ids=["not-an-object", "no-record", "record-not-an-object"])
    def test_resume_rejects_foreign_line(self, tmp_path, line):
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(out_jsonl=str(jsonl))
        run_sweep(cfg)
        jsonl.write_text(jsonl.read_text() + line + "\n")
        with pytest.raises(ValueError, match="cells.jsonl:2: malformed checkpoint line"):
            run_sweep(cfg, resume=True)

    @pytest.mark.parametrize("edit", ["extra-key", "missing-key"])
    def test_resume_recomputes_record_with_other_keys(self, tmp_path, monkeypatch, edit):
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(out_jsonl=str(jsonl))
        first = run_sweep(cfg)
        payload = json.loads(jsonl.read_text())
        if edit == "extra-key":
            payload["record"]["version"] = 2
        else:
            del payload["record"]["gradvar_phys"]
        jsonl.write_text(json.dumps(payload) + "\n")
        calls = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: calls.append(args) or run_cell(*args))
        with pytest.warns(RuntimeWarning, match="cells.jsonl:1: not reusing"):
            resumed = run_sweep(cfg, resume=True)
        assert len(calls) == 1
        assert [replace(r, wall_time=0.0) for r in resumed] == [replace(r, wall_time=0.0) for r in first]
        assert len(jsonl.read_text().splitlines()) == 2

    def test_resume_reruns_an_error_record(self, tmp_path, monkeypatch):
        # a failed cell is retried, not reused: its line has the run fields
        # and SweepRecord's keys, but an error
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(out_jsonl=str(jsonl))
        first = run_sweep(cfg)
        payload = json.loads(jsonl.read_text())
        payload["record"]["error"] = "RuntimeError: interrupted"
        jsonl.write_text(json.dumps(payload) + "\n")
        calls = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: calls.append(args) or run_cell(*args))
        resumed = run_sweep(cfg, resume=True)
        assert len(calls) == 1 and resumed[0].error is None
        assert [replace(r, wall_time=0.0) for r in resumed] == [replace(r, wall_time=0.0) for r in first]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), threads=st.sampled_from(["1", "2"]))
    def test_resume_after_a_cut_at_any_byte(self, uninterrupted, data, threads):
        # a crash can leave the checkpoint cut at any byte; the resumed
        # sweep must write the uninterrupted CSV and run only the cells
        # whose lines were not complete
        checkpoint, csv = uninterrupted
        cut = data.draw(st.integers(0, len(checkpoint)), label="cut")
        kept = checkpoint[:cut].count(b"\n")
        cells = enumerate_cells(resume_grid())
        ran = []
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out_csv = resume_grid(out_jsonl=str(Path(tmp) / "results.jsonl")), Path(tmp) / "results.csv"
            Path(cfg.out_jsonl).write_bytes(checkpoint[:cut])

            def spy(*args):
                ran.append(args[5])  # the cell's seed
                return run_cell(*args)

            with mock.patch.dict(os.environ, {"VQCLAB_THREADS": threads}), \
                    mock.patch.object(harness, "run_cell", spy), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                emit_csv(run_sweep(cfg, resume=True), out_csv)
            assert out_csv.read_bytes() == csv
            # every line parses again, one per cell in cell order
            lines = Path(cfg.out_jsonl).read_bytes().splitlines()
            assert [json.loads(line)["record"]["seed"] for line in lines] == [seed for *_, seed in cells]
        assert sorted(ran) == [seed for *_, seed in cells[kept:]]
        torn = cut > 0 and checkpoint[cut - 1] != ord("\n")
        assert any("unterminated last line" in str(w.message) for w in caught) == torn

    def test_resume_without_checkpoint_fails(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="out_jsonl"):
            run_sweep(tiny_config(), resume=True)
        assert calls == []

    # int() alone reads the last two as 2 and 10
    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", "\u0662", " 1_0 "])
    def test_bad_thread_count_fails_before_any_cell(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("VQCLAB_THREADS", value)
        jsonl = tmp_path / "cells.jsonl"
        seen = []
        with pytest.raises(ValueError, match="VQCLAB_THREADS"):
            run_sweep(tiny_config(out_jsonl=str(jsonl)), progress=lambda *a: seen.append(a))
        assert seen == [] and not jsonl.exists()

    def test_progress_callback(self):
        seen = []
        run_sweep(tiny_config(), progress=lambda rec, done, total: seen.append((done, total)))
        assert seen == [(1, 1)]


def sample_records():
    recs = []
    for i, (n, reps) in enumerate([(2, 1), (2, 2), (4, 1), (4, 2)]):
        recs.append(
            SweepRecord(
                ansatz="ttn",
                n=n,
                reps=reps,
                p_log=3,
                p_phys=5,
                g1q_log=4,
                g1q_phys=9,
                g2q_log=1,
                g2q_phys=1,
                depth_log=3,
                depth_phys=7,
                delta_g1q=5,
                delta_g2q=0,
                delta_depth_dag=4,
                delta_depth_paper=6,
                gradvar_log=0.31 + i,
                gradvar_phys=0.12345678912 + i,
                delta_gradvar=0.12345678912 - 0.31,
                stderr_log=0.01,
                stderr_phys=0.02,
                seed=100 + i,
            )
        )
    return recs


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "ansatz,n,reps,P_log,P_phys,g1q_log,g1q_phys,g2q_log,g2q_phys,"
            "depth_log,depth_phys,delta_g1q,delta_g2q,delta_depth_dag,delta_depth_paper,"
            "gradvar_log,gradvar_phys,delta_gradvar,stderr_log,stderr_phys,seed"
        )

    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(sample_records()[:1], path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rt.csv"
        records = sample_records()
        emit_csv(records, path)
        parsed = read_csv(path)
        assert len(parsed) == len(records)
        for orig, back in zip(records, parsed):
            for field in ("ansatz", "n", "reps", "p_log", "g2q_phys", "seed", "delta_g2q"):
                assert getattr(back, field) == getattr(orig, field)
            assert back.gradvar_phys == pytest.approx(orig.gradvar_phys, rel=1e-8)
            assert back.delta_gradvar == pytest.approx(orig.delta_gradvar, rel=1e-8)

    def test_emit_parse_emit_is_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(sample_records(), a)
        emit_csv(read_csv(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        emit_csv(sample_records()[:1], path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[16] == "0.123456789"

    def test_error_records_omitted(self, tmp_path):
        path = tmp_path / "err.csv"
        records = sample_records()[:2]
        records.append(SweepRecord(ansatz="ttn", n=8, reps=1, error="boom"))
        emit_csv(records, path)
        assert len(path.read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "edit", [lambda row: row + ",7", lambda row: row.rsplit(",", 1)[0]], ids=["long", "short"]
    )
    def test_read_rejects_wrong_column_count(self, tmp_path, edit):
        path = tmp_path / "cols.csv"
        emit_csv(sample_records()[:2], path)
        header, first, second = path.read_text().splitlines()
        path.write_text("\n".join([header, first, edit(second)]) + "\n")
        with pytest.raises(ValueError, match=r"cols\.csv:3: expected 21 columns"):
            read_csv(path)

    # int() and float() alone read these as 10 and 0.15
    @pytest.mark.parametrize("column, value, kind", [(1, "1_0", "an integer"), (1, "\u0661\u0660", "an integer"),
                                                     (16, "0.1_5", "a float")],
                             ids=["int-underscore", "int-arabic-indic", "float-underscore"])
    def test_read_takes_the_text_number_rules(self, tmp_path, column, value, kind):
        path = tmp_path / "numbers.csv"
        emit_csv(sample_records()[:1], path)
        header, row = path.read_text().splitlines()
        values = row.split(",")
        values[column] = value
        path.write_text(f"{header}\n{','.join(values)}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"numbers.csv:2: invalid literal for {kind}"):
            read_csv(path)

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        emit_csv(sample_records(), path)
        header, first, *rest = path.read_text().splitlines()
        expected = read_csv(path)
        path.write_text("\n".join([header, first, "", *rest, " "]) + "\n")
        assert read_csv(path) == expected

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,header\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)


class TestHeatmap:
    def test_well_formed_xml_with_grid(self, tmp_path):
        path = tmp_path / "map.svg"
        emit_heatmap_svg(sample_records(), "ttn", path)
        root = ET.parse(path).getroot()
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) == 4

    def test_all_zero_deltas_are_neutral(self, tmp_path):
        records = [replace(r, delta_gradvar=0.0) for r in sample_records()]
        path = tmp_path / "zero.svg"
        emit_heatmap_svg(records, "ttn", path)
        root = ET.parse(path).getroot()
        fills = {el.get("fill") for el in root.iter() if el.tag.endswith("rect")}
        assert fills == {"#f7f7f7"}

    def test_single_positive_cell_is_red_side(self, tmp_path):
        records = [replace(r, delta_gradvar=0.0) for r in sample_records()]
        records[0] = replace(records[0], delta_gradvar=0.5)
        path = tmp_path / "pos.svg"
        emit_heatmap_svg(records, "ttn", path)
        root = ET.parse(path).getroot()
        fills = [el.get("fill") for el in root.iter() if el.tag.endswith("rect")]
        # the hot cell is fully red; the rest sit at the neutral center
        assert "#b2182b" in fills
        assert fills.count("#f7f7f7") == 3

    def test_incomplete_grid_lists_missing(self, tmp_path):
        records = sample_records()[:3]
        with pytest.raises(ValueError, match=r"missing cells.*4, 2"):
            emit_heatmap_svg(records, "ttn", tmp_path / "x.svg")

    def test_unknown_ansatz(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            emit_heatmap_svg(sample_records(), "bogus", tmp_path / "x.svg")

    def test_error_cells_count_as_missing(self, tmp_path):
        records = sample_records()
        records[1] = replace(records[1], error="failed")
        with pytest.raises(ValueError, match="missing cells"):
            emit_heatmap_svg(records, "ttn", tmp_path / "x.svg")
