import json
import threading

import pytest

from qtfa import verify
from qtfa.errors import ParameterError
from qtfa.verify import (_KNOWN_CHECKS, RunConfig, UNGATED_CHECKS, default_config_dict,
                         format_report_table, gated_failures, load_report,
                         run_verification, write_report)


def small_config(**overrides):
    raw = default_config_dict()
    raw.update({
        "n": 16,
        "oracle_trials": 2,
        "hardy_n": 64,
        "param_sets": [
            {"name": "shear", "A1": [1, 1, 0, 1, 0.2, -0.4],
             "A2": [1, 1, 0, 1, 0.2, -0.4]},
        ],
    })
    raw.update(overrides)
    return RunConfig.from_dict(raw)


class TestRunConfig:
    def test_defaults_parse(self):
        config = RunConfig.from_dict(default_config_dict())
        assert config.n == 64
        assert len(config.param_sets) == 3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig.from_dict({"definitely_not_a_key": 1})

    def test_det_violating_matrix_rejected(self):
        raw = default_config_dict()
        raw["param_sets"] = [{"name": "bad", "A1": [1, 1, 0, 1 + 1e-6, 0, 0],
                              "A2": [1, 1, 0, 1, 0, 0]}]
        with pytest.raises(ParameterError):
            RunConfig.from_dict(raw)

    def test_stride_must_divide(self):
        with pytest.raises(ParameterError):
            RunConfig.from_dict({**default_config_dict(), "n": 64, "stride": 7})

    def test_zero_oracle_trials_rejected(self):
        # zero trials used to emit passing oracle records with lhs=0
        with pytest.raises(ParameterError):
            RunConfig.from_dict({"oracle_trials": 0})


class TestRunVerification:
    def test_small_corpus_passes(self):
        results = run_verification(small_config())
        assert len(results) >= 20
        assert not gated_failures(results)

    def test_only_filter(self):
        results = run_verification(small_config(), only=["donoho-stark"])
        assert results
        assert {r.name for r in results} == {"donoho-stark"}

    def test_unknown_only_name_rejected(self):
        # a filter that matches nothing used to run 0 checks and pass
        with pytest.raises(ParameterError):
            run_verification(small_config(), only=["donoho-stark", "no-such-check"])

    def test_registry_is_the_set_of_emitted_names(self):
        results = run_verification(small_config())
        assert {r.name for r in results} == _KNOWN_CHECKS

    @pytest.mark.parametrize("name", sorted(_KNOWN_CHECKS))
    def test_only_selects_every_emitted_name(self, name):
        # log-up-literal, log-up-derivative and donoho-stark-support used
        # to match no task and yield 0 records
        results = run_verification(small_config(), only=[name])
        assert results
        assert {r.name for r in results} == {name}

    @pytest.mark.parametrize("alias", ["moyal", "log-up", "beurling"])
    def test_names_no_record_carries_are_unknown(self, alias):
        with pytest.raises(ParameterError, match="unknown check names"):
            run_verification(small_config(), only=[alias])

    @pytest.mark.parametrize("overrides, name", [
        ({"pitt_alphas": []}, "pitt"),
        ({"pitt_alphas": [0.5]}, "pitt-equality"),
        ({"eps": []}, "donoho-stark"),
        ({"stride": 2}, "energy"),
    ])
    def test_selected_check_without_records_rejected(self, overrides, name):
        # a selected check that yields no record would certify nothing
        with pytest.raises(ParameterError, match="produced no records"):
            run_verification(small_config(**overrides), only=[name])

    def test_default_corpus_record_order(self):
        head = (["quat-table", "quat-norm-multiplicative", "quat-conj-antiautomorphism",
                 "quat-scalar-cyclic", "gamma-half", "gamma-recurrence",
                 "log-up-constant", "pitt-constant-zero"]
                + ["pitt-constant-continuity"] * 2
                + ["qft-plancherel", "qft-roundtrip"] * 3
                + ["qft-plancherel", "qft-oracle"] + ["hardy-qft"] * 4 + ["hardy-chirp"])
        per_set = (["qolct-plancherel", "qolct-roundtrip"] * 3
                   + ["qolct-oracle", "stqolct-routes", "boundedness", "energy",
                      "isometry", "reconstruction"]
                   + ["donoho-stark"] * 3
                   + ["donoho-stark-support", "pitt", "pitt-equality", "pitt", "pitt",
                      "pitt", "log-up-literal", "log-up-derivative", "hardy-field",
                      "hardy-field", "moyal-shared-window", "moyal-shared-signal",
                      "moyal-general", "beurling-value", "beurling-monotone"])
        config = RunConfig.from_dict({**default_config_dict(), "n": 16})
        results = run_verification(config)
        assert [r.name for r in results] == head + per_set * 3
        assert not gated_failures(results)

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(verify, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
        return calls

    @pytest.mark.parametrize("name", ["moyal-shared-window", "moyal-shared-signal",
                                      "moyal-general", "energy"])
    def test_only_one_moyal_record_makes_one_call_per_set(self, monkeypatch, name):
        # every Moyal record used to cost all three moyal_check calls, and
        # a record that is not a Moyal identity costs none
        calls = self._count_calls(monkeypatch, "moyal_check")
        config = RunConfig.from_dict({**default_config_dict(), "n": 16})
        results = run_verification(config, only=[name])
        assert len(results) == len(config.param_sets)
        assert len(calls) == (len(config.param_sets) if name.startswith("moyal") else 0)

    def test_no_pool_task_makes_more_than_one_moyal_call(self, monkeypatch):
        # each Moyal record is its own task, so no task runs two Moyal pairs
        task = threading.local()
        calls = []
        original = verify.moyal_check

        def counted(*args, **kwargs):
            calls.append(task.label)
            return original(*args, **kwargs)

        class Labelled(verify.ThreadPoolExecutor):
            def map(self, fn, items):
                def run(item):
                    task.label = item[0]
                    return fn(item)

                return super().map(run, items)

        monkeypatch.setattr(verify, "moyal_check", counted)
        monkeypatch.setattr(verify, "ThreadPoolExecutor", Labelled)
        config = RunConfig.from_dict({**default_config_dict(), "n": 16})
        run_verification(config)
        assert len(calls) == 3 * len(config.param_sets)
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("only, passes", [(["donoho-stark-support"], 0),
                                              (["energy"], 1),
                                              (["energy", "donoho-stark-support"], 1),
                                              (["qolct-oracle"], 0)])
    def test_streamed_pass_runs_only_for_the_checks_it_feeds(self, monkeypatch, only,
                                                             passes):
        # the exact-support corollary builds its own field; selecting it
        # alone used to stream the main field of every set as well
        calls = self._count_calls(monkeypatch, "_stream")
        config = RunConfig.from_dict({**default_config_dict(), "n": 16})
        results = run_verification(config, only=only)
        assert {r.name for r in results} == set(only)
        assert len(calls) == passes * len(config.param_sets)

    @pytest.mark.parametrize("name, builds", [("energy", 0), ("reconstruction", 1)])
    def test_reconstruction_is_built_only_for_its_record(self, monkeypatch, name, builds):
        # the reconstruction costs a second reducer in the pass, and its arrays
        calls = self._count_calls(monkeypatch, "_Reconstruction")
        config = RunConfig.from_dict({**default_config_dict(), "n": 16})
        results = run_verification(config, only=[name])
        assert {r.name for r in results} == {name}
        assert len(calls) == builds * len(config.param_sets)

    def test_ungated_checks_never_gate(self):
        results = run_verification(small_config(), only=sorted(UNGATED_CHECKS))
        # force every diagnostic to "fail" and confirm gating ignores them
        for r in results:
            r.passed = False
        assert not gated_failures(results)

    def test_deterministic(self):
        a = run_verification(small_config(), only=["qft-oracle", "qolct-oracle"])
        b = run_verification(small_config(), only=["qft-oracle", "qolct-oracle"])
        assert [(r.name, r.lhs) for r in a] == [(r.name, r.lhs) for r in b]

    def test_worker_count_does_not_change_results(self, monkeypatch):
        names = ["energy", "donoho-stark", "pitt"]
        monkeypatch.setenv("QTF_THREADS", "1")
        serial = run_verification(small_config(), only=names)
        monkeypatch.setenv("QTF_THREADS", "4")
        parallel = run_verification(small_config(), only=names)
        assert [(r.name, r.lhs, r.rhs) for r in serial] == \
               [(r.name, r.lhs, r.rhs) for r in parallel]

    def test_row_passes_inside_tasks_start_no_pool(self, monkeypatch, row_pools):
        # verify's own pool is busy with tasks; nesting would oversubscribe it
        monkeypatch.setenv("QTF_THREADS", "2")
        run_verification(small_config(), only=["energy", "reconstruction",
                                                "donoho-stark-support",
                                                "moyal-shared-window"])
        assert row_pools == []

    def test_bad_thread_env_rejected(self, monkeypatch):
        monkeypatch.setenv("QTF_THREADS", "many")
        with pytest.raises(ParameterError):
            run_verification(small_config(), only=["quat-table"])


class TestReportIo:
    def test_write_load_roundtrip(self, tmp_path):
        results = run_verification(small_config(), only=["quat-table", "gamma-half"])
        path = tmp_path / "report.jsonl"
        write_report(results, path)
        records = load_report(path)
        assert len(records) == len(results)
        assert records[0]["name"] == results[0].name
        assert set(records[0]) == {"name", "params", "lhs", "rhs", "margin",
                                   "tolerance", "pass"}
        # one JSON object per line
        lines = path.read_text().strip().split("\n")
        assert all(json.loads(line) for line in lines)

    def test_table_format(self, tmp_path):
        results = run_verification(small_config(), only=["quat-table"])
        path = tmp_path / "report.jsonl"
        write_report(results, path)
        table = format_report_table(load_report(path))
        assert "quat-table" in table
        assert "ok" in table
