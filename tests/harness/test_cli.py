"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
from pathlib import Path

import pytest

from repro.__main__ import DEFAULT_CACHE_DIR, build_engine, build_parser, main
from repro.errors import ConfigurationError
from repro.harness.exec import engine_from_env
from repro.harness.journal import DEFAULT_BATCH_ENTRIES, DEFAULT_LINGER_SECONDS
from repro.obs.trace import TRACE_ENV


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mix_requires_valid_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mix", "17"])

    def test_profile_choices(self):
        args = build_parser().parse_args(["--profile", "test", "table6"])
        assert args.profile == "test"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--profile", "huge", "table6"])

    def test_rmax_capacity(self):
        args = build_parser().parse_args(["rmax", "--capacity", "4"])
        assert args.capacity == 4

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["--trace", "t.jsonl", "--metrics-out", "m.prom", "mix", "1"]
        )
        assert args.trace == "t.jsonl"
        assert args.metrics_out == "m.prom"

    def test_trace_summarize_takes_a_path(self):
        args = build_parser().parse_args(["trace-summarize", "t.jsonl"])
        assert args.command == "trace-summarize"
        assert args.trace_path == "t.jsonl"


class TestExecution:
    def test_rmax_command(self, capsys):
        assert main(["--profile", "test", "rmax", "--capacity", "2"]) == 0
        out = capsys.readouterr().out
        assert "R_max table" in out
        assert "m=  0" in out

    def test_mix_command_small_with_observability(
        self, capsys, monkeypatch, tmp_path
    ):
        """One traced campaign end to end: figures on stdout, a parseable
        trace JSONL, and a metrics textfile + JSON snapshot on exit."""
        monkeypatch.setenv(TRACE_ENV, "0")  # restored after the test
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "--profile",
                    "test",
                    "--no-cache",
                    "--trace",
                    str(trace),
                    "--metrics-out",
                    str(metrics),
                    "mix",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Mix 1" in out
        assert "Geo. mean" in out
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert {"engine.run", "cell.compute", "sim.run"} <= names
        prom = metrics.read_text()
        assert "repro_exec_cells_total" in prom
        assert "repro_sim_runs_total" in prom
        snapshot = json.loads((tmp_path / "metrics.prom.json").read_text())
        assert "repro_exec_cells_total" in snapshot

    def test_trace_summarize_command(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            json.dumps(
                {
                    "kind": "span",
                    "name": "cell.compute",
                    "t0": 0.0,
                    "t1": 2.0,
                    "dur": 2.0,
                    "wall": 0.0,
                    "pid": 1,
                    "id": "1-1",
                    "parent": None,
                    "attrs": {},
                }
            )
            + "\n"
        )
        assert main(["trace-summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "cell.compute" in out

    def test_trace_summarize_missing_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.jsonl"
        assert main(["trace-summarize", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(missing) in captured.err


def _clean_environment(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


def _front_end(front, flags=(), **keywords):
    """An engine from ``build_engine`` (the CLI) or ``engine_from_env``."""
    if front == "cli":
        return build_engine(build_parser().parse_args([*flags, "rmax"]))
    return engine_from_env(DEFAULT_CACHE_DIR, **keywords)


FRONT_ENDS = ("cli", "library")


class TestEngineEnvironment:
    """Both front ends apply one rule to every engine setting: a flag
    (keyword) wins, else its ``REPRO_*`` variable, else the default."""

    ENV = {
        "REPRO_RETRIES": "3",
        "REPRO_TIMEOUT": "40",
        "REPRO_HEARTBEAT": "0.5",
    }

    #: (variable, a value it applies, a value the flag must beat,
    #:  CLI flags, engine_from_env keywords, read the setting,
    #:  default, from the variable, from the flag)
    RULE = [
        ("REPRO_JOBS", "3", "3", ["--jobs", "2"], {"jobs": 2},
         lambda e: e.jobs, 1, 3, 2),
        ("REPRO_CACHE", "off", "on", ["--no-cache"], {"cache": False},
         lambda e: e.cache is not None, True, False, False),
        ("REPRO_CACHE_DIR", "env-dir", "env-dir",
         ["--cache-dir", "flag-dir"], {"cache_dir": "flag-dir"},
         lambda e: e.cache.directory,
         Path(DEFAULT_CACHE_DIR), Path("env-dir"), Path("flag-dir")),
        ("REPRO_RESUME", "on", "off", ["--resume"], {"resume": True},
         lambda e: e.resume, False, True, True),
        ("REPRO_PRECOMPUTE", "off", "on", ["--no-precompute-store"],
         {"precompute": False}, lambda e: e.store is not None,
         True, False, False),
        ("REPRO_RETRIES", "3", "3", ["--retries", "0"], {"retries": 0},
         lambda e: e.retries, 1, 3, 0),
        ("REPRO_TIMEOUT", "40", "40", ["--timeout", "5"], {"timeout": 5.0},
         lambda e: e.timeout, None, 40.0, 5.0),
        ("REPRO_HEARTBEAT", "0.5", "0.5", ["--heartbeat", "2"],
         {"heartbeat": 2.0}, lambda e: e.heartbeat, 1.0, 0.5, 2.0),
    ]

    @staticmethod
    def _engine(tmp_path, *flags):
        argv = ["--cache-dir", str(tmp_path), *flags, "rmax"]
        return build_engine(build_parser().parse_args(argv))

    @staticmethod
    def _settings(engine):
        return (engine.retries, engine.timeout, engine.heartbeat)

    @pytest.mark.parametrize("front", FRONT_ENDS)
    @pytest.mark.parametrize("row", RULE, ids=[row[0] for row in RULE])
    def test_flag_beats_variable_beats_default(
        self, row, front, monkeypatch, tmp_path
    ):
        (name, value, contrary, flags, keywords, read, default,
         from_variable, from_flag) = row
        _clean_environment(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert read(_front_end(front)) == default
        monkeypatch.setenv(name, value)
        assert read(_front_end(front)) == from_variable
        monkeypatch.setenv(name, contrary)
        assert read(_front_end(front, flags, **keywords)) == from_flag

    @pytest.mark.parametrize("front", FRONT_ENDS)
    def test_journal_group_commits(self, front, monkeypatch, tmp_path):
        _clean_environment(monkeypatch)
        monkeypatch.chdir(tmp_path)
        journal = _front_end(front).journal
        assert journal.path == Path(DEFAULT_CACHE_DIR) / "journal.jsonl"
        assert (journal.batch_entries, journal.linger_seconds) == (
            DEFAULT_BATCH_ENTRIES,
            DEFAULT_LINGER_SECONDS,
        )

    @pytest.mark.parametrize("front", FRONT_ENDS)
    def test_zero_seconds_mean_off(self, front, monkeypatch, tmp_path):
        _clean_environment(monkeypatch)
        monkeypatch.chdir(tmp_path)
        flags = ["--timeout", "0", "--heartbeat", "0"]
        engine = _front_end(front, flags, timeout=0.0, heartbeat=0.0)
        assert (engine.timeout, engine.heartbeat) == (None, None)
        monkeypatch.setenv("REPRO_TIMEOUT", "0")
        monkeypatch.setenv("REPRO_HEARTBEAT", "0")
        engine = _front_end(front)
        assert (engine.timeout, engine.heartbeat) == (None, None)

    def test_defaults_without_environment(self, monkeypatch, tmp_path):
        for name in self.ENV:
            monkeypatch.delenv(name, raising=False)
        engine = self._engine(tmp_path)
        assert self._settings(engine) == (1, None, 1.0)
        assert engine.stall_timeout is None

    def test_environment_applies(self, monkeypatch, tmp_path):
        for name, value in self.ENV.items():
            monkeypatch.setenv(name, value)
        engine = self._engine(tmp_path)
        assert self._settings(engine) == (3, 40.0, 0.5)

    def test_flags_override_environment(self, monkeypatch, tmp_path):
        for name, value in self.ENV.items():
            monkeypatch.setenv(name, value)
        engine = self._engine(
            tmp_path, "--retries", "0", "--timeout", "5", "--heartbeat", "2"
        )
        assert self._settings(engine) == (0, 5.0, 2.0)

    @pytest.mark.parametrize("name", sorted(ENV))
    def test_malformed_value_names_the_variable(
        self, name, monkeypatch, tmp_path, capsys
    ):
        for other in self.ENV:
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(name, "soon")
        with pytest.raises(ConfigurationError, match=name):
            self._engine(tmp_path)
        assert main(["--cache-dir", str(tmp_path), "rmax"]) == 2
        assert name in capsys.readouterr().err


class TestSwitchVariables:
    """``REPRO_CACHE``/``REPRO_RESUME``/``REPRO_PRECOMPUTE`` share one
    on/off parser under ``engine_from_env`` and ``build_engine`` alike.
    ``REPRO_JOURNAL`` reads the same spellings, and any other value is
    the journal's path."""

    SWITCHES = ("REPRO_CACHE", "REPRO_RESUME", "REPRO_PRECOMPUTE")

    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch, tmp_path):
        for name in (*self.SWITCHES, "REPRO_JOURNAL"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    @staticmethod
    def _cli(tmp_path):
        argv = ["--cache-dir", str(tmp_path), "rmax"]
        return build_engine(build_parser().parse_args(argv))

    @pytest.mark.parametrize("value", ["off", "OFF", " 0 ", "no", "false"])
    def test_cache_off_spellings_disable_the_cache(
        self, monkeypatch, tmp_path, value
    ):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert engine_from_env().cache is None
        assert self._cli(tmp_path).cache is None

    @pytest.mark.parametrize("value", ["", "on", "1", "TRUE"])
    def test_cache_on_spellings_keep_the_cache(
        self, monkeypatch, tmp_path, value
    ):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert engine_from_env().cache is not None
        assert self._cli(tmp_path).cache is not None

    @pytest.mark.parametrize("value", ["TRUE", " 1", "on", "Yes"])
    def test_resume_on_spellings_resume_under_both(
        self, monkeypatch, tmp_path, value
    ):
        monkeypatch.setenv("REPRO_RESUME", value)
        assert engine_from_env().resume
        assert self._cli(tmp_path).resume

    @pytest.mark.parametrize("value", ["", "0", "off", "FALSE"])
    def test_resume_off_spellings_do_not_resume(
        self, monkeypatch, tmp_path, value
    ):
        monkeypatch.setenv("REPRO_RESUME", value)
        assert not engine_from_env().resume
        assert not self._cli(tmp_path).resume

    @pytest.mark.parametrize("name", ["REPRO_RESUME", "REPRO_PRECOMPUTE"])
    def test_malformed_switch_raises_under_both(
        self, monkeypatch, tmp_path, capsys, name
    ):
        monkeypatch.setenv(name, "maybe")
        with pytest.raises(ConfigurationError, match=f"{name}='maybe'"):
            engine_from_env()
        with pytest.raises(ConfigurationError, match=f"{name}='maybe'"):
            self._cli(tmp_path)
        assert main(["--cache-dir", str(tmp_path), "rmax"]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["0", "off", "OFF", " no ", "False"]
    )
    def test_journal_off_spellings_disable_the_journal(
        self, monkeypatch, tmp_path, value
    ):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        monkeypatch.setenv("REPRO_JOURNAL", value)
        assert engine_from_env().journal is None
        assert self._cli(tmp_path).journal is None
        # Not a journal file named after the switch, either.
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("value", ["", "1", "on", "TRUE", " yes "])
    def test_journal_on_spellings_use_the_default_path(
        self, monkeypatch, tmp_path, value
    ):
        monkeypatch.setenv("REPRO_JOURNAL", value)
        for engine in (engine_from_env(), self._cli(tmp_path)):
            assert engine.journal is not None
            assert engine.journal.path == tmp_path / "journal.jsonl"

    def test_journal_other_value_is_a_path(self, monkeypatch, tmp_path):
        target = tmp_path / "elsewhere" / "run.jsonl"
        monkeypatch.setenv("REPRO_JOURNAL", f" {target} ")
        for engine in (engine_from_env(), self._cli(tmp_path)):
            assert engine.journal is not None
            assert engine.journal.path == target

    def test_journal_on_without_a_cache_dir_journals_nowhere(
        self, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("REPRO_JOURNAL", "on")
        assert engine_from_env().journal is None

    def test_malformed_cache_switch_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        with pytest.raises(ConfigurationError, match="REPRO_CACHE='maybe'"):
            engine_from_env()
        with pytest.raises(ConfigurationError, match="REPRO_CACHE='maybe'"):
            self._cli(tmp_path)


class TestEnvironmentAfterMain:
    """A CLI run hands settings to its workers without leaving them in
    the caller's environment."""

    @pytest.mark.parametrize("flags", [[], ["--no-precompute-store"]])
    def test_main_leaves_the_environment_as_it_was(
        self, flags, monkeypatch, tmp_path, capsys
    ):
        _clean_environment(monkeypatch)
        before = dict(os.environ)
        argv = ["--profile", "test", "--cache-dir", str(tmp_path), *flags]
        assert main([*argv, "mix", "1", "--schemes", "static"]) == 0
        assert dict(os.environ) == before
        assert "Mix 1" in capsys.readouterr().out

    def _profiled_traced(self, tmp_path, *command):
        return [
            "--profile", "test", "--cache-dir", str(tmp_path / "cache"),
            "--cprofile", "untangle", "--trace", str(tmp_path / "t.jsonl"),
            *command,
        ]

    def test_cprofile_and_trace_end_with_the_call(
        self, monkeypatch, tmp_path, capsys
    ):
        _clean_environment(monkeypatch)
        before = dict(os.environ)
        argv = self._profiled_traced(tmp_path, "rmax", "--capacity", "1")
        assert main(argv) == 0
        assert dict(os.environ) == before
        assert "R_max table" in capsys.readouterr().out

    def test_cprofile_and_trace_end_with_a_failed_call(
        self, monkeypatch, tmp_path, capsys
    ):
        _clean_environment(monkeypatch)
        monkeypatch.setenv("REPRO_RETRIES", "many")
        before = dict(os.environ)
        assert main(self._profiled_traced(tmp_path, "rmax")) == 2
        assert dict(os.environ) == before
        assert "REPRO_RETRIES" in capsys.readouterr().err

    def test_cprofile_and_trace_end_with_an_interrupted_call(
        self, monkeypatch, tmp_path
    ):
        _clean_environment(monkeypatch)
        before = dict(os.environ)

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.__main__.build_engine", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(self._profiled_traced(tmp_path, "rmax"))
        assert dict(os.environ) == before


class TestSchemesFlag:
    def test_parser_accepts_registered_names(self):
        args = build_parser().parse_args(
            ["mix", "1", "--schemes", "static", "threshold"]
        )
        assert args.schemes == ["static", "threshold"]

    def test_parser_rejects_unregistered_names(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mix", "1", "--schemes", "nosuch"])

    def test_ad_hoc_scheme_set_renders_plain_table(self, capsys):
        assert (
            main(
                [
                    "--profile",
                    "test",
                    "--no-cache",
                    "mix",
                    "1",
                    "--schemes",
                    "static",
                    "threshold",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Mix 1: static, threshold" in out
        assert "Geomean speedup over static" in out
        # The figure renderer (which needs time/untangle columns) must
        # not have been used.
        assert "Maintain fraction" not in out


class TestScenarioCommand:
    def test_runs_a_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "tiny.toml"
        spec.write_text(
            "[scenario]\n"
            'name = "tiny"\n'
            'profile = "test"\n'
            'schemes = ["static"]\n'
            "[[scenario.workloads]]\n"
            'label = "pair"\n'
            'pairs = [["gcc_0", "RSA-2048"]]\n'
        )
        assert main(["--no-cache", "scenario", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "Scenario 'tiny'" in out
        assert "scenario[tiny]" in out

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "bad.toml"
        spec.write_text("[scenario]\nname = 'x'\nmixes = [1]\nschemes = ['nosuch']\n")
        assert main(["--no-cache", "scenario", str(spec)]) == 2
        assert "unknown scheme" in capsys.readouterr().err


class TestConformCommand:
    def test_quick_battery_for_one_scheme(self, capsys):
        assert main(["conform", "static", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "static  (profile: test)" in out
        assert "[PASS] kernel-identity" in out
        assert "Conformance OK" in out

    def test_unknown_scheme_exits_2(self, capsys):
        assert main(["conform", "nosuch"]) == 2
        assert "unregistered scheme" in capsys.readouterr().err

    def test_names_conflict_with_all(self, capsys):
        assert main(["conform", "--all", "static"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_quick_conflicts_with_full(self, capsys):
        assert main(["conform", "static", "--quick", "--full"]) == 2
        assert "conflict" in capsys.readouterr().err

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        # A scheme registered as untangle-compliant whose factory
        # produces the time-based scheme must fail the battery — and
        # the CLI must exit non-zero for CI to notice.
        from repro.registry import REGISTRY, Registration
        from repro.schemes.timebased import TimeScheme

        registration = REGISTRY.get("scheme", "time")
        impostor = Registration(
            kind="scheme",
            name="impostor",
            factory=registration.factory,
            untangle_compliant=True,
            produces=(TimeScheme,),
        )
        with REGISTRY.temporary(impostor):
            assert main(["conform", "impostor", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "Conformance FAILED" in out
