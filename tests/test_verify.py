import json
import threading

import pytest

from qtfa import grid, verify
from qtfa.errors import ParameterError
from qtfa.verify import (_KNOWN_CHECKS, RunConfig, default_config_dict, format_report_table,
                         gated_failures, load_report, run_verification, write_report)


def small_config(**overrides):
    raw = default_config_dict()
    raw.update({
        "n": 16,
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

    def test_only_n_param_sets_and_seed_are_settable(self):
        assert set(default_config_dict()) == {"n", "param_sets", "seed"}
        assert set(RunConfig.__dataclass_fields__) == {"n", "param_sets", "seed"}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig.from_dict({"definitely_not_a_key": 1})

    def test_det_violating_matrix_rejected(self):
        raw = default_config_dict()
        raw["param_sets"] = [{"name": "bad", "A1": [1, 1, 0, 1 + 1e-6, 0, 0],
                              "A2": [1, 1, 0, 1, 0, 0]}]
        with pytest.raises(ParameterError):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("seed", [-1, -2**40])
    def test_a_negative_seed_is_rejected(self, seed):
        # it used to reach numpy's default_rng and fail there, in a task
        with pytest.raises(ParameterError, match="seed must be nonnegative"):
            RunConfig.from_dict({"seed": seed})

    @pytest.mark.parametrize("names", [("x", "x"), ("set1", None)])
    def test_a_repeated_set_name_is_rejected(self, names):
        # two sets named x used to write records both tagged {"set": "x"};
        # the second set's default name, set1, collides with an explicit one
        fourier = [0, 1, -1, 0, 0, 0]
        raw = default_config_dict()
        raw["param_sets"] = [{"A1": fourier, "A2": fourier} if name is None
                             else {"name": name, "A1": fourier, "A2": fourier}
                             for name in names]
        with pytest.raises(ParameterError, match="used twice"):
            RunConfig.from_dict(raw)


class TestRunVerification:
    def test_small_corpus_passes(self):
        results = run_verification(small_config())
        assert len(results) >= 20
        assert not gated_failures(results)

    def test_only_filter(self):
        results = run_verification(small_config(), only=["donoho-stark"])
        assert results
        assert {r.name for r in results} == {"donoho-stark"}

    def test_empty_selection_rejected(self, monkeypatch):
        # an empty selection used to run every record
        monkeypatch.setattr(verify, "ThreadPoolExecutor",
                            lambda *args, **kwargs: pytest.fail("a task ran"))
        with pytest.raises(ParameterError, match="names no checks"):
            run_verification(small_config(), only=[])

    def test_unknown_only_name_rejected(self):
        # a filter that matches nothing used to run 0 checks and pass
        with pytest.raises(ParameterError):
            run_verification(small_config(), only=["donoho-stark", "no-such-check"])

    def test_registry_is_the_set_of_emitted_names(self):
        results = run_verification(small_config())
        assert {r.name for r in results} == _KNOWN_CHECKS

    @pytest.mark.parametrize("name", sorted(_KNOWN_CHECKS))
    def test_only_selects_every_emitted_name(self, name):
        # the log records and donoho-stark-support once matched no task
        # and yielded 0 records
        results = run_verification(small_config(), only=[name])
        assert results
        assert {r.name for r in results} == {name}

    # hardy-field, beurling-value and isometry were records that could not
    # fail on their own; their names are retired with them
    @pytest.mark.parametrize("alias", ["moyal", "log-up-derivative", "beurling", "hardy-field",
                                       "beurling-value", "isometry"])
    def test_names_no_record_carries_are_unknown(self, alias):
        with pytest.raises(ParameterError, match="unknown check names"):
            run_verification(small_config(), only=[alias])

    def test_default_corpus_record_order(self):
        head = (["quat-table", "quat-norm-multiplicative", "quat-conj-antiautomorphism",
                 "quat-scalar-cyclic", "pitt-constant-zero", "pitt-log-slope"]
                + ["qft-plancherel", "qft-roundtrip"] * 3
                + ["qft-plancherel", "qft-oracle"] + ["hardy-qft"] * 4)
        per_set = (["qolct-plancherel", "qolct-roundtrip"] * 3
                   + ["qolct-oracle", "stqolct-routes"]
                   + ["reconstruction-exact", "energy-exact"] * 2
                   + ["boundedness", "energy", "reconstruction"]
                   + ["donoho-stark"] * 3
                   + ["pitt", "pitt-equality", "pitt", "pitt", "pitt", "log-up",
                      "donoho-stark-support", "moyal-shared-window", "moyal-shared-signal",
                      "moyal-general"])
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

    @staticmethod
    def _label_tasks(monkeypatch):
        # the labels of the pool tasks that run, in order; task.label is
        # the label of the task running on the calling thread
        task, labels = threading.local(), []

        class Labelled(verify.ThreadPoolExecutor):
            def map(self, fn, items):
                def run(item):
                    task.label = item[0]
                    return fn(item)

                items = list(items)
                labels.extend(item[0] for item in items)
                return super().map(run, items)

        monkeypatch.setattr(verify, "ThreadPoolExecutor", Labelled)
        return task, labels

    def test_no_pool_task_makes_more_than_one_moyal_call(self, monkeypatch):
        # each Moyal record is its own task, so no task runs two Moyal pairs
        task, _ = self._label_tasks(monkeypatch)
        calls = []
        original = verify.moyal_check

        def counted(*args, **kwargs):
            calls.append(task.label)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "moyal_check", counted)
        config = RunConfig.from_dict({**default_config_dict(), "n": 16})
        run_verification(config)
        assert len(calls) == 3 * len(config.param_sets)
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("key", sorted(verify._CHECKS))
    def test_a_task_key_alone_runs_only_its_tasks(self, monkeypatch, key):
        # the task filter is the only selection: a key's names run that
        # key's tasks, once per parameter set if it is a check of one set
        _, per_set, names = verify._CHECKS[key]
        _, labels = self._label_tasks(monkeypatch)
        config = RunConfig.from_dict({**default_config_dict(), "n": 16})
        results = run_verification(config, only=list(names))
        assert labels == ([f"{key}:{pset[0]}" for pset in config.param_sets] if per_set
                          else [key])
        assert {r.name for r in results} == set(names)

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

    @pytest.mark.parametrize("n, field_bytes", [(32, 64 * 32**4), (64, 32 * 64**4)])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_dense_fields_over_the_budget_raise_before_any_task(self, monkeypatch, n,
                                                                 field_bytes, threads):
        # at n = 32 a Moyal record's two fields are the larger, at n = 64
        # the corollary's; one set holds four such tasks
        ran = []
        for key, (_, per_set, names) in verify._CHECKS.items():
            monkeypatch.setitem(verify._CHECKS, key,
                                (lambda *args, key=key: ran.append(key) or [], per_set, names))
        monkeypatch.setenv("QTF_THREADS", str(threads))
        need = threads * field_bytes
        monkeypatch.setattr(grid, "_memory_budget", lambda: need - 1)
        with pytest.raises(ParameterError, match=f"{threads} concurrent verify tasks at n = {n} "
                                                 f"needs {need} bytes"):
            run_verification(small_config(n=n))
        assert ran == []
        monkeypatch.setattr(grid, "_memory_budget", lambda: need)
        run_verification(small_config(n=n))
        assert len(ran) == len(verify._CHECKS)

    def test_a_selection_without_dense_fields_needs_no_budget(self, monkeypatch):
        monkeypatch.setattr(grid, "_memory_budget", lambda: 0)
        assert run_verification(small_config(), only=["qft-oracle", "energy"])

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
        results = run_verification(small_config(), only=["quat-table", "pitt-constant-zero"])
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
