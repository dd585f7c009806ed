from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import realchar._kernels as kernels
import realchar.chartab as chartab
import realchar.classify as classify
import realchar.cli as cli
import realchar.perm as perm
from realchar.chartab import parse_dump
from realchar.cli import Config, cmd_info, cmd_scan, cmd_table, cmd_verify, main
from realchar.errors import InternalError


def _run(command, *args, **kw):
    """The exit code of a command and what it wrote to stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = command(*args, **kw)
    return code, out.getvalue()


def run_table(source, config=Config(), **kw):
    return _run(cmd_table, source, config, **kw)


def run_verify(source, config=Config()):
    return _run(cmd_verify, source, config)


def run_scan(manifest, config=Config()):
    return _run(cmd_scan, manifest, config)


class TestTable:
    def test_a5(self):
        code, text = run_table("A5")
        assert code == 0
        assert "degrees: 1,3,3,4,5" in text
        assert "real rows: 5 of 5" in text

    def test_c4(self):
        code, text = run_table("C4")
        assert code == 0
        assert "real rows: 2 of 4" in text
        assert text.count("\n") >= 5  # header + 4 rows + summary

    def test_exact_flag(self):
        code, text = run_table("S3", exact=True)
        assert code == 0
        assert "exact 0" in text

    def test_bad_grp_file(self, tmp_path):
        bad = tmp_path / "bad.grp"
        bad.write_text("degree 3\n(1,4)\n")
        assert main(["table", str(bad)]) == 2

    def test_unknown_name(self):
        assert main(["table", "NoSuchGroup"]) == 2

    def test_non_utf8_grp_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.grp"
        bad.write_bytes(b"degree 3\n(1,2\xff)\n")
        assert main(["info", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not UTF-8") and "Traceback" not in err

    def test_grp_degree_above_the_cap(self, tmp_path, capsys):
        huge = tmp_path / "huge.grp"
        huge.write_text("degree 1000000000000000000\n(1,2)\n")
        assert main(["table", str(huge)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: degree")


# sha256 of ``table --exact``: the exact lifts as well as the residues,
# pinned so that a change to the lifting code shows byte for byte
EXACT_DUMP_SHA256 = {
    "A5xC3": "31a2f717dd4a7d8be6ee7492f670fc1dde118f535ecf0c9f0a244c82d9465d41",
    "SL2_5oC4": "5eb27804205f9b72a0a7a18fee6dd70ef6ba1b2f2ed01be2b284be1cbbcf37fc",
    "Q8xD8xC3": "972bea2e25562a09a1a5af1a11fe160fb22be591bfef79ef78adbfa2b23859dd",
    "aff64_L2_8": "a054de46fa4fd52b3791265bcc9630577a1aaa7c19f393800850b35192386499",
}


class TestExactDump:
    @pytest.mark.parametrize("name", sorted(EXACT_DUMP_SHA256))
    def test_digest(self, name):
        code, text = run_table(name, exact=True)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == EXACT_DUMP_SHA256[name]


class TestVerify:
    def test_sl25_circ_c4(self):
        code, text = run_verify("SL2x5circC4")
        assert code == 0
        assert "verdict=CaseII" in text
        assert "H_order=4 O_order=1" in text

    def test_s5(self):
        code, text = run_verify("S5")
        assert code == 0
        assert "verdict=HypothesisFails" in text
        assert "witness_degree=6" in text

    def test_c12(self):
        code, text = run_verify("C12")
        assert code == 0
        assert "verdict=SolvableSkip" in text

    def test_machine_output(self):
        code, text = run_verify("A5", Config(machine=True))
        assert code == 0
        payload = json.loads(text)
        assert payload["verdict"] == "CaseI"
        assert payload["K"] == "A5"
        assert payload["ms"] == 0

    def test_human_ms_covers_loading_the_group(self, monkeypatch):
        _, machine = run_verify("A5", Config(machine=True))
        enumerate_group = cli.enumerate_group

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return enumerate_group(*args, **kwargs)

        monkeypatch.setattr(cli, "enumerate_group", slow)
        _, text = run_verify("A5")
        assert int(text.rsplit("ms=", 1)[1]) >= 50
        assert run_verify("A5", Config(machine=True))[1] == machine

    def test_grp_file_source(self, tmp_path):
        path = tmp_path / "s3.grp"
        path.write_text("degree 3\n(1,2)\n(1,2,3)\n")
        code, text = run_verify(str(path))
        assert code == 0 and "SolvableSkip" in text


class TestScan:
    def test_small_manifest(self, tmp_path):
        manifest = tmp_path / "names.txt"
        manifest.write_text("A5\nL2_8\n")
        code, text = run_scan(str(manifest))
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert all("verdict=CaseI" in ln for ln in lines[:2])
        assert lines[2].startswith("summary: groups=2 CaseI=2")

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("# nothing\n")
        code, text = run_scan(str(manifest))
        assert code == 0
        assert text.strip() == "summary: groups=0"

    def test_error_entries_recorded_and_scan_continues(self, tmp_path):
        manifest = tmp_path / "names.txt"
        manifest.write_text("NoSuchGroup\nA5\n")
        code, text = run_scan(str(manifest), Config(machine=True))
        assert code == 1
        lines = text.strip().splitlines()
        first = json.loads(lines[0])
        assert first["verdict"] == "Error" and "NoSuchGroup" in first["error"]
        assert json.loads(lines[1])["verdict"] == "CaseI"

    def test_unreadable_grp_entries_are_error_entries(self, tmp_path, monkeypatch):
        # a missing file and a non-UTF-8 one each fail on their own; the
        # names around them are still reported
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.grp").write_bytes(b"degree 3\n(1,2\xff)\n")
        (tmp_path / "names.txt").write_text("A5\nmissing.grp\nbad.grp\nS3\n")
        code, text = run_scan("names.txt", Config(machine=True))
        assert code == 1
        reports = [json.loads(line) for line in text.splitlines()[:-1]]
        assert [r["verdict"] for r in reports] == ["CaseI", "Error", "Error", "SolvableSkip"]
        assert "No such file" in reports[1]["error"]
        assert reports[2]["error"].startswith("bad.grp is not UTF-8")
        assert text.splitlines()[-1] == "summary: groups=4 CaseI=1 Error=2 SolvableSkip=1"

    def test_human_line_of_an_error_entry_says_what_failed(self, tmp_path):
        manifest = tmp_path / "names.txt"
        manifest.write_text("bogus\n")
        code, text = run_scan(str(manifest))
        assert code == 1
        assert "verdict=Error  error=unknown group name 'bogus'" in text.splitlines()[0]

    def test_non_utf8_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "names.txt"
        manifest.write_bytes(b"A5\n\xff\n")
        assert main(["scan", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest} is not UTF-8") and "Traceback" not in err

    def test_machine_scan_is_byte_identical(self, tmp_path):
        manifest = tmp_path / "names.txt"
        manifest.write_text("A5\nS5\nQ8\n")
        config = Config(machine=True, rng_seed=5)
        _, first = run_scan(str(manifest), config)
        _, second = run_scan(str(manifest), config)
        assert first == second

    def test_parallel_scan_matches_serial(self, tmp_path):
        manifest = tmp_path / "names.txt"
        manifest.write_text("A5\nS3\nQ8\nC4\n")
        _, serial = run_scan(str(manifest), Config(machine=True))
        _, parallel = run_scan(str(manifest), Config(machine=True, jobs=3))
        assert serial == parallel

    def test_pool_has_no_more_workers_than_names(self, tmp_path, monkeypatch):
        # a fork-context pool starts every worker at once; this pool records
        # the size it is asked for and maps in process, starting none
        import concurrent.futures

        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        manifest = tmp_path / "names.txt"
        manifest.write_text("A5\nQ8\n")
        pooled = run_scan(str(manifest), Config(machine=True, jobs=10_000))
        assert asked == [min(2, os.cpu_count() or 1)]
        assert pooled == run_scan(str(manifest), Config(machine=True))
        # three names on two processors: two workers
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        manifest.write_text("A5\nQ8\nS3\n")
        asked.clear()
        pooled = run_scan(str(manifest), Config(machine=True, jobs=10_000))
        assert asked == [2]
        assert pooled == run_scan(str(manifest), Config(machine=True))
        # an unknown processor count gives one worker
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        asked.clear()
        assert run_scan(str(manifest), Config(machine=True, jobs=3)) == pooled
        assert asked == [1]

    def test_order_mismatch_fails_scan(self, tmp_path, monkeypatch):
        import realchar.catalog as catalog
        from realchar.catalog import CatalogEntry

        monkeypatch.setattr(
            catalog, "default_corpus", lambda: [CatalogEntry("A5", 61, "CaseI")]
        )
        code, _ = run_scan(None)
        assert code == 1


class TestViolation:
    def test_verify_exits_1_and_scan_counts_it(self, tmp_path, monkeypatch):
        # A5xC4 with its derived limit mislabelled matches neither case
        analyze = classify.analyze
        monkeypatch.setattr(
            classify, "analyze", lambda *args: replace(analyze(*args), k_label="other")
        )
        code, text = run_verify("A5xC4", Config(machine=True))
        assert code == 1 and json.loads(text)["verdict"] == "Violation"
        manifest = tmp_path / "names.txt"
        manifest.write_text("A5xC4\n")
        code, text = run_scan(str(manifest))
        assert code == 1
        assert text.splitlines()[-1] == "summary: groups=1 Violation=1"

    def test_report_says_why(self, monkeypatch):
        # A5's 2-core, taken for one with a nonlinear real character
        assert "reason" not in json.loads(run_verify("A5", Config(machine=True))[1])
        monkeypatch.setattr(classify, "chillag_mann_subgroup", lambda *args: False)
        reason = "2-core of the radical has a nonlinear real character"
        code, text = run_verify("A5")
        assert code == 1 and f"  verdict=Violation  reason={reason}  L1=" in text
        code, text = run_verify("A5", Config(machine=True))
        assert code == 1 and json.loads(text)["reason"] == reason

class TestCache:
    def test_hit_and_miss_agree(self, tmp_path):
        config = Config(cache_dir=str(tmp_path / "cache"))
        code1, miss = run_verify("A5", config)
        assert (tmp_path / "cache").is_dir()
        files = list((tmp_path / "cache").glob("*.tbl"))
        assert len(files) == 1
        code2, hit = run_verify("A5", config)
        assert code1 == code2 == 0
        strip = lambda s: s[: s.rindex("ms=")]
        assert strip(miss) == strip(hit)

    def test_machine_reports_identical_across_cache_states(self, tmp_path):
        config = Config(cache_dir=str(tmp_path / "cache"), machine=True)
        _, miss = run_verify("S4", config)
        _, hit = run_verify("S4", config)
        assert miss == hit

    def test_table_of_another_format_version_is_a_miss(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        config = Config(cache_dir=str(cache))
        _, uncached = run_table("S3")
        monkeypatch.setattr(cli, "CACHE_FORMAT", cli.CACHE_FORMAT + 1)
        run_table("S3", config)
        (other,) = cache.glob("*.tbl")
        other.write_text("a table in another format\n")
        monkeypatch.undo()
        parsed = []
        monkeypatch.setattr(cli, "parse_dump", lambda text: parsed.append(text) or parse_dump(text))
        assert run_table("S3", config) == (0, uncached)
        # a miss without reading the other file, and this version's table is
        # written beside it; the next run reads that one
        assert parsed == []
        (current,) = set(cache.glob("*.tbl")) - {other}
        assert other.read_text() == "a table in another format\n"
        assert run_table("S3", config) == (0, uncached)
        assert parsed == [current.read_text()]

    def test_key_depends_on_prime_not_seed(self, tmp_path, monkeypatch):
        # the table does not depend on the seed, so a run at another seed
        # reads back the table of the default seed
        cache = tmp_path / "cache"
        _, cold = run_verify("S3", Config(cache_dir=str(cache), machine=True))

        def refuse(*args, **kwargs):
            raise AssertionError("a cached table was computed again")

        with monkeypatch.context() as patched:
            patched.setattr(cli, "compute_table", refuse)
            _, warm = run_verify("S3", Config(cache_dir=str(cache), rng_seed=9, machine=True))
        assert warm == cold
        run_verify("S3", Config(cache_dir=str(cache), prime_override=13))
        assert len(list(cache.glob("*.tbl"))) == 2

    def test_row_with_an_extra_value_is_a_miss(self, tmp_path):
        config = Config(cache_dir=str(tmp_path / "cache"))
        _, uncached = run_table("A5")
        run_table("A5", config)
        (path,) = (tmp_path / "cache").glob("*.tbl")
        good = path.read_text()
        lines = good.splitlines()
        lines[2] += ",1"
        path.write_text("\n".join(lines) + "\n")
        code, text = run_table("A5", config)
        assert code == 0 and text == uncached
        assert path.read_text() == good

    def test_table_failing_orthogonality_is_a_miss(self, tmp_path):
        config = Config(cache_dir=str(tmp_path / "cache"), machine=True)
        _, uncached = run_verify("A5", Config(machine=True))
        run_verify("A5", config)
        (path,) = (tmp_path / "cache").glob("*.tbl")
        good = path.read_text()
        lines = good.splitlines()
        degree, ind, flag, values = lines[3].split()
        vals = values.split(",")
        vals[-1] = str((int(vals[-1]) + 1) % parse_dump(good).ctx.p)
        lines[3] = " ".join((degree, ind, flag, ",".join(vals)))
        path.write_text("\n".join(lines) + "\n")
        code, text = run_verify("A5", config)
        assert code == 0 and text == uncached
        assert path.read_text() == good

    @pytest.mark.parametrize(
        "field, flip",
        [(1, lambda ind: "-1" if ind == "1" else "1"), (2, lambda flag: str(1 - int(flag)))],
        ids=["indicator", "real_flag"],
    )
    def test_flipped_row_field_is_a_miss(self, tmp_path, field, flip):
        config = Config(cache_dir=str(tmp_path / "cache"))
        _, uncached = run_table("Q8xC3")
        run_table("Q8xC3", config)
        (path,) = (tmp_path / "cache").glob("*.tbl")
        good = path.read_text()
        lines = good.splitlines()
        parts = lines[4].split()
        parts[field] = flip(parts[field])
        lines[4] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        code, text = run_table("Q8xC3", config)
        assert code == 0 and text == uncached
        assert path.read_text() == good

    def test_failed_store_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        cache = tmp_path / "cache"
        assert main(["--cache-dir", str(cache), "table", "A5"]) == 2
        assert "no space" in capsys.readouterr().err
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("flag", [False, True])
    def test_empty_cache_dir_means_no_cache(self, tmp_path, monkeypatch, capsys, flag):
        # an empty directory would otherwise put the table in the working one
        monkeypatch.chdir(tmp_path)
        if flag:
            argv = ["--cache-dir", "", "verify", "A5"]
        else:
            monkeypatch.setenv("REALCHAR_CACHE_DIR", "")
            argv = ["verify", "A5"]
        assert main(argv) == 0
        assert "verdict=CaseI" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_file_is_a_miss(self, tmp_path):
        config = Config(cache_dir=str(tmp_path / "cache"))
        _, uncached = run_table("S3")
        run_table("S3", config)
        (path,) = (tmp_path / "cache").glob("*.tbl")
        path.write_text("p=x, e=2\n")
        assert run_table("S3", config) == (0, uncached)


class TestInfo:
    def test_s5(self):
        code, text = _run(cmd_info, "S5", Config())
        assert code == 0
        assert "order: 120" in text
        assert "derived limit order: 60" in text
        assert "derived limit recognized: A5" in text
        assert "solvable: False" in text


def _wrap_everywhere(monkeypatch, name, record):
    """Wrap the function ``name`` under every realchar module that binds it,
    calling ``record(args, result)`` after each call."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "realchar"]
    for module in modules:
        original = getattr(module, name, None)
        if original is None:
            continue

        def wrapped(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            record(args, result)
            return result

        monkeypatch.setattr(module, name, wrapped)


class TestNoSecondTable:
    def test_scan_tables_are_of_the_group_or_its_2_core(self, monkeypatch):
        # the 2-core's Chillag-Mann type is a count of classes, so every
        # table is of a loaded group, and a cold scan computes one per group
        loaded, tabled, computed = [], [], []
        _wrap_everywhere(monkeypatch, "load_source", lambda args, res: loaded.append(res[1]))
        _wrap_everywhere(monkeypatch, "compute_table", lambda args, res: tabled.append(args[0]))
        _wrap_everywhere(monkeypatch, "common_eigenbasis", lambda args, res: computed.append(1))
        assert run_scan(None, Config(machine=True))[0] == 0
        assert len(loaded) == 17 and tabled
        for g in tabled:
            assert any(g is x for x in loaded), (g.spec.name, g.order)
        assert len(computed) == 17

    def test_warm_cached_scan_computes_no_table(self, monkeypatch, tmp_path):
        # the cache holds every G's table, and no check needs another
        config = Config(machine=True, cache_dir=str(tmp_path / "cache"))
        cold = run_scan(None, config)
        computed = []
        _wrap_everywhere(monkeypatch, "common_eigenbasis", lambda args, res: computed.append(1))
        assert run_scan(None, config) == cold
        assert len(computed) == 0

    @pytest.mark.parametrize("name", ["Q8", "D8"])
    def test_verify_at_a_given_prime_computes_one_table(self, monkeypatch, capsys, name):
        # a 2-group is its own 2-core, whose Chillag-Mann check reads no
        # table, so the one table is G's at the given prime
        computed = []
        _wrap_everywhere(monkeypatch, "common_eigenbasis", lambda args, res: computed.append(1))
        assert main(["--prime", "1009", "--machine", "verify", name]) == 0
        assert json.loads(capsys.readouterr().out)["prime"] == 1009
        assert len(computed) == 1

    def test_cold_scan_enumerates_each_group_once(self, monkeypatch):
        # the 2-core's real classes are counted in G, so no report
        # enumerates a subgroup
        calls = []
        _wrap_everywhere(monkeypatch, "enumerate_group", lambda args, res: calls.append(args[0]))
        assert run_scan(None, Config(machine=True))[0] == 0
        assert len(calls) == 17

    def test_info_enumerates_the_group_once(self, monkeypatch):
        calls = []
        _wrap_everywhere(monkeypatch, "enumerate_group", lambda args, res: calls.append(args[0]))
        assert _run(cmd_info, "aff64_L2_8", Config())[0] == 0
        assert [spec.name for spec in calls] == ["aff64_L2_8"]

    def test_each_command_sweeps_the_classes_once(self, monkeypatch, tmp_path):
        # every stage takes the classes its caller swept, so none sweeps again
        calls = []
        _wrap_everywhere(monkeypatch, "conjugacy_classes", lambda args, res: calls.append(1))
        assert run_scan(None, Config(machine=True))[0] == 0
        assert len(calls) == 17
        cache = str(tmp_path / "cache")
        for argv in (["info", "S5"], ["table", "--exact", "A5"], ["verify", "SL2_5oC4"]):
            for extra in ([], ["--cache-dir", cache], ["--cache-dir", cache]):
                calls.clear()
                assert _run(main, [*extra, *argv])[0] == 0
                assert len(calls) == 1, (extra, argv)


class TestConfig:
    def test_caps_must_be_positive(self):
        import pytest

        from realchar.errors import ToolkitError

        with pytest.raises(ToolkitError):
            Config(order_cap=0)
        with pytest.raises(ToolkitError):
            Config(jobs=0)


class TestMain:
    def test_env_overrides(self, monkeypatch, capsys):
        monkeypatch.setenv("REALCHAR_MACHINE", "1")
        assert main(["verify", "C4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "SolvableSkip"

    def test_flag_beats_default(self, capsys):
        assert main(["--machine", "verify", "Q8"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 8

    def test_capacity_error_exit_code(self, capsys):
        assert main(["--cap-order", "10", "table", "A5"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_class_matrix_stack_over_the_limit_exits_2(self, monkeypatch, capsys):
        # C4xC4xC4 has k = 64 classes, one over the lowered cap
        monkeypatch.setattr(perm, "_MAX_CLASSES", 63)
        assert main(["table", "C4xC4xC4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 64 classes") and "Traceback" not in err

    @pytest.mark.parametrize(
        "name, degree", [("C20000", 20000), ("C100000000", 100000000), ("C6000xC6000", 12000)]
    )
    def test_name_over_the_degree_limit_exits_2(self, monkeypatch, capsys, name, degree):
        # refused from the name, before a generator is built
        def refuse(self):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(perm.Permutation, "__post_init__", refuse)
        assert main(["info", name]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {name!r} acts on {degree} points, over the limit of 10000\n"

    # digits that str.isdigit accepts and int refuses
    @pytest.mark.parametrize("name", ["C²", "L2_²", "L2(²)", "PSL2_³", "A²"])
    def test_name_with_a_superscript_digit_exits_2(self, capsys, name):
        assert main(["info", name]) == 2
        assert capsys.readouterr().err == f"error: unknown group name {name!r}\n"

    def test_grp_degree_with_a_superscript_digit_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.grp"
        bad.write_text("degree ²\n(1,2)\n", encoding="utf-8")
        assert main(["info", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 1: expected 'degree N', got 'degree ²'\n"

    def test_class_number_at_the_cap(self, capsys):
        # the largest k whose (k, k, k) stack fit in 2 GiB is 645
        assert perm._MAX_CLASSES == 645
        assert main(["table", "C646"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 646 classes") and "Traceback" not in err

    def test_class_number_is_refused_before_the_power_classes(self, monkeypatch, capsys):
        # listing the power classes of C2000's reps takes 2000^2 / 2 steps;
        # the refusal comes right after the conjugation sweep, before any
        # rep is multiplied
        def refuse(*args, **kwargs):
            raise AssertionError("a power of a class representative was formed")

        # every power is formed from the images of the reps, read through
        # their chain indices
        monkeypatch.setattr(kernels.PermTable, "_images", refuse)
        assert main(["table", "C2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 2000 classes") and "Traceback" not in err

    def test_lattice_cap_reaches_the_suite(self, capsys):
        # Q8 is solvable, so only the L1-L4 suite ever needed its lattice
        assert main(["verify", "Q8", "--cap-lattice", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cap 2" in err

    def test_bad_seed_variable_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REALCHAR_SEED", "abc")
        assert main(["verify", "C4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "REALCHAR_SEED" in err

    def test_bad_jobs_variable_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REALCHAR_JOBS", "2.5")
        assert main(["scan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "REALCHAR_JOBS" in err


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's
    realchar, with no ``REALCHAR_*`` variable set."""
    src = Path(cli.__file__).parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REALCHAR_")}
    env["PYTHONPATH"] = str(src)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


class TestImport:
    def test_process_pool_is_not_imported_with_the_cli(self):
        # it is needed only for --jobs > 1 (test_parallel_scan_matches_serial)
        src = Path(cli.__file__).parents[1]
        code = "import sys, realchar.cli; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "False\n")

    def test_commands_import_no_module_on_the_way(self):
        # a module first imported inside a command costs every fresh process
        # its load time: hashlib loads OpenSSL, which only the --cache-dir
        # key needs, and np.unique imports numpy.ma, about 40 ms.  These
        # commands add locale alone to what realchar.cli imports
        commands = [
            ["table", "C4xC4xC4"],
            ["table", "Q8xD8xC3"],
            ["table", "aff64_L2_8"],
            ["scan", "--machine"],
        ]
        code = (
            "import contextlib, io, sys, realchar.cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [realchar.cli.main(args) for args in {commands!r}]\n"
            "print(*codes)\n"
            "print(*set(sys.modules) - before)"
        )
        done = _fresh_interpreter(code)
        assert done.returncode == 0, done.stderr
        codes, added = done.stdout.splitlines()
        assert codes == "0 0 0 0" and set(added.split()) <= {"locale", "_locale"}


# The peak resident set of the running process's own address space, in KiB.
# ru_maxrss is no such peak in a child of pytest: it keeps the high-water
# mark of the address space replaced at exec, which a forked child shares
# with this process, so it never reads below what the test run holds.
# RUSAGE_CHILDREN would be the largest of every earlier child instead.
_OWN_PEAK_KIB = """
def own_peak_kib():
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""


class TestMemory:
    def test_wide_verify_streams_its_class_matrices(self):
        # k = 320: the (k, k, k) stack of its class matrices alone was
        # 250 MiB, and the whole process peaked at 304 MB
        code = _OWN_PEAK_KIB + (
            "import contextlib, io, realchar.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = realchar.cli.main(['verify', 'A5xC4xC4xC4'])\n"
            "print(code, own_peak_kib())"
        )
        done = _fresh_interpreter(code)
        assert done.returncode == 0, done.stderr
        exit_code, kib = map(int, done.stdout.split())
        assert exit_code == 0
        assert kib / 1024 < 100, f"peak RSS {kib / 1024:.0f} MB"


class TestInternalError:
    @staticmethod
    def _break_tables(monkeypatch):
        def broken(*args, **kwargs):
            raise InternalError("eigenvector vanishes on the identity class")

        monkeypatch.setattr(cli, "compute_table", broken)

    def test_table_exits_3(self, monkeypatch, capsys):
        self._break_tables(monkeypatch)
        assert main(["table", "A5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "eigenvector" in err

    def test_bad_class_matrix_exits_3(self, monkeypatch, capsys):
        # compute_table builds its own class matrices, so a family without a
        # common eigenbasis is a bug, not bad input
        build = chartab.all_class_matrices

        def bent(cd, g):
            mats = np.stack(list(build(cd, g)))
            mats[1, 0, 0] += 1
            return mats

        monkeypatch.setattr(chartab, "all_class_matrices", bent)
        assert main(["table", "A5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "common eigenbasis" in err

    def test_scan_records_it_as_a_failure(self, tmp_path, monkeypatch):
        self._break_tables(monkeypatch)
        manifest = tmp_path / "names.txt"
        manifest.write_text("A5\n")
        code, text = run_scan(str(manifest), Config(machine=True))
        assert code == 1
        first = json.loads(text.splitlines()[0])
        assert first["verdict"] == "InternalError" and "eigenvector" in first["error"]
        assert text.splitlines()[-1] == "summary: groups=1 InternalError=1"
