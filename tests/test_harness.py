import json
import time
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from vqclab import harness
from vqclab.backend import make_line
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


class TestConfig:
    def test_default_config(self):
        cfg = default_sweep_config()
        assert cfg.qubits == [2, 4, 6, 8, 10]
        assert cfg.reps == [1, 2, 4, 6, 8, 10]
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
            dict(meta_seeds=0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)


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

    def test_out_csv_implies_checkpoint_next_to_it(self, tmp_path):
        jsonl = tmp_path / "results.jsonl"
        cfg = tiny_config(out_csv=str(tmp_path / "results.csv"))
        assert cfg.out_jsonl == str(jsonl)
        assert tiny_config(out_csv=str(tmp_path / "results.csv"), out_jsonl="cells.jsonl").out_jsonl == "cells.jsonl"
        first = run_sweep(cfg)
        assert len(jsonl.read_text().splitlines()) == 1
        assert run_sweep(cfg, resume=True) == first
        assert len(jsonl.read_text().splitlines()) == 1

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

    def test_checkpoint_line_keys_pinned(self, tmp_path):
        jsonl = tmp_path / "cells.jsonl"
        run_sweep(tiny_config(out_jsonl=str(jsonl)))
        payload = json.loads(jsonl.read_text())
        assert sorted(payload) == ["backend", "meta_seeds", "mode", "record", "samples"]
        assert set(payload["record"]) == {
            "ansatz", "n", "reps", "p_log", "p_phys", "g1q_log", "g1q_phys", "g2q_log", "g2q_phys",
            "depth_log", "depth_phys", "delta_g1q", "delta_g2q", "delta_depth_dag", "delta_depth_paper",
            "gradvar_log", "gradvar_phys", "delta_gradvar", "stderr_log", "stderr_phys", "seed",
            "wall_time", "error",
        }

    def test_resume_does_not_reuse_other_meta_seeds(self, tmp_path):
        jsonl = tmp_path / "cells.jsonl"
        run_sweep(tiny_config(out_jsonl=str(jsonl), meta_seeds=1))
        resumed = run_sweep(tiny_config(out_jsonl=str(jsonl), meta_seeds=3), resume=True)
        fresh = run_sweep(tiny_config(meta_seeds=3))
        assert [replace(r, wall_time=0.0) for r in resumed] == [replace(r, wall_time=0.0) for r in fresh]
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert [l["meta_seeds"] for l in lines] == [1, 3]

    def test_checkpoint_without_meta_seeds_reads_as_one(self, tmp_path):
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(out_jsonl=str(jsonl))
        first = run_sweep(cfg)
        payload = json.loads(jsonl.read_text())
        del payload["meta_seeds"]
        jsonl.write_text(json.dumps(payload) + "\n")
        assert run_sweep(cfg, resume=True) == first
        assert len(jsonl.read_text().splitlines()) == 1

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

    def test_resume_rejects_malformed_complete_line(self, tmp_path):
        jsonl = tmp_path / "cells.jsonl"
        cfg = tiny_config(out_jsonl=str(jsonl))
        run_sweep(cfg)
        jsonl.write_text("{not json\n" + jsonl.read_text())
        with pytest.raises(ValueError, match="cells.jsonl:1"):
            run_sweep(cfg, resume=True)

    def test_resume_without_checkpoint_fails(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="out_jsonl"):
            run_sweep(tiny_config(), resume=True)
        assert calls == []

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_thread_count_fails_before_any_cell(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("VQCLAB_THREADS", value)
        jsonl = tmp_path / "cells.jsonl"
        seen = []
        with pytest.raises(ValueError, match="VQCLAB_THREADS"):
            run_sweep(tiny_config(out_jsonl=str(jsonl)), progress=lambda *a: seen.append(a))
        assert seen == [] and not jsonl.exists()

    def test_meta_seeds_average(self):
        cfg = tiny_config(meta_seeds=3, samples=40)
        r = run_sweep(cfg)[0]
        assert r.error is None
        assert r.stderr_log >= 0.0

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
