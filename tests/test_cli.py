import json

import pytest

from silt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_show_hereditary(capsys):
    code, out, _ = run(capsys, "algebra", "show", "--builtin", "hereditary", "--n", "2")
    assert code == 0
    assert "dimension 4" in out
    assert "P_1: [1, 1]" in out


def test_algebra_show_auslander(capsys):
    code, out, _ = run(capsys, "algebra", "show", "--builtin", "auslander_bass_v",
                       "--n", "1")
    assert code == 0
    assert "dimension 4" in out


def test_algebra_show_file(tmp_path, capsys):
    doc = {
        "field": {"p": 32003},
        "quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]]},
        "relations": [],
        "nilpotency_bound": 2,
    }
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "algebra", "show", "--file", str(path))
    assert code == 0
    assert "dimension 3" in out


def test_malformed_file_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    code, _, err = run(capsys, "algebra", "show", "--file", str(path))
    assert code == 3
    assert "bad.json:2" in err


def test_bad_relation_reports_index(tmp_path, capsys):
    doc = {
        "field": {"p": 32003},
        "quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]]},
        "relations": [[[1, ["a", "a"]]]],
        "nilpotency_bound": 2,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "algebra", "show", "--file", str(path))
    assert code == 3
    assert "non-composable" in err or "relation" in err


@pytest.mark.parametrize("command", [("algebra", "show"), ("explore",)])
@pytest.mark.parametrize("source", [("--builtin", "bass_v"), ("--builtin", "triangular_a2"),
                                    ("--file", "algebra.json")])
def test_n_refused_where_it_does_not_apply(capsys, command, source):
    # a family without a parameter, or a file, would ignore --n yet name it
    # in the banner; no file is read, so the path need not exist
    code, out, err = run(capsys, *command, *source, "--n", "7")
    assert code == 3 and out == ""
    assert err.startswith("error: --n applies to --builtin hereditary and auslander_bass_v "
                          f"only, not {source[0]}")


def test_missing_source(capsys):
    code, _, err = run(capsys, "explore")
    assert code == 3
    assert "algebra source" in err
    code, _, err = run(capsys, "explore", "--n", "2")
    assert code == 3
    assert "algebra source" in err


def test_explore_counts(capsys):
    code, out, _ = run(capsys, "explore", "--builtin", "hereditary", "--n", "3")
    assert code == 0
    assert "20 silting modules" in out
    assert "COMPLETE" in out
    assert "hasse check: OK" in out
    code, out, _ = run(capsys, "explore", "--builtin", "triangular_a2")
    assert code == 0
    assert "5 silting modules" in out
    code, out, _ = run(capsys, "explore", "--builtin", "auslander_bass_v",
                       "--n", "2")
    assert code == 0
    assert "24 silting modules" in out


def test_explore_incomplete_banner_exit_zero(capsys):
    code, out, _ = run(capsys, "explore", "--builtin", "hereditary", "--n", "3",
                       "--max-nodes", "4")
    assert code == 0
    assert "INCOMPLETE" in out


def test_explore_json_out(tmp_path, capsys):
    out_path = tmp_path / "eq.json"
    code, _, _ = run(capsys, "explore", "--builtin", "triangular_a2",
                     "--format", "json", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["complete"] is True
    assert len(doc["nodes"]) == 5


def test_explore_dot_stdout(capsys):
    code, out, _ = run(capsys, "explore", "--builtin", "triangular_a2",
                       "--format", "dot")
    assert code == 0
    assert "digraph" in out


def test_cache_hit_reproduces_bytes(tmp_path, capsys):
    cache = tmp_path / "cache"
    f1 = tmp_path / "one.json"
    f2 = tmp_path / "two.json"
    for f in (f1, f2):
        code, _, _ = run(capsys, "explore", "--builtin", "hereditary", "--n", "2",
                         "--format", "json", "--out", str(f),
                         "--cache", str(cache))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert len(list(cache.glob("*.json"))) == 1


def test_cache_write_failure_leaves_nothing(tmp_path, capsys, monkeypatch):
    import silt.cli as cli

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    cache = tmp_path / "cache"
    code, _, err = run(capsys, "explore", "--builtin", "hereditary", "--n", "1",
                       "--cache", str(cache))
    assert code == 3 and "error: disk full" in err
    assert list(cache.iterdir()) == []


def test_cache_path_that_is_a_file_exits_3(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.write_text("not a directory")
    code, _, err = run(capsys, "explore", "--builtin", "hereditary", "--n", "1",
                       "--cache", str(cache))
    assert code == 3
    assert err.startswith("error: ") and str(cache) in err
    assert "Traceback" not in err


def test_out_path_in_missing_directory_exits_3(tmp_path, capsys):
    out_path = tmp_path / "missing_dir" / "x.json"
    code, _, err = run(capsys, "explore", "--builtin", "hereditary", "--n", "1",
                       "--format", "json", "--out", str(out_path))
    assert code == 3
    assert err.startswith("error: ") and str(out_path) in err
    assert not out_path.exists()


def test_dot_cache_hit_skips_exploration(tmp_path, capsys, monkeypatch):
    import silt.cli as cli
    cache = tmp_path / "cache"
    cold, hit = tmp_path / "cold.dot", tmp_path / "hit.dot"
    args = ("explore", "--builtin", "auslander_bass_v", "--n", "1",
            "--format", "dot", "--cache", str(cache))
    code, _, _ = run(capsys, *args, "--out", str(cold))
    assert code == 0

    def refuse(*a, **k):
        raise AssertionError("explore ran on a cache hit")

    monkeypatch.setattr(cli.ex, "explore", refuse)
    code, _, _ = run(capsys, *args, "--out", str(hit))
    assert code == 0
    assert hit.read_bytes() == cold.read_bytes()
    assert cold.read_text().startswith("digraph")


@pytest.mark.parametrize("corrupt", [
    '{"algebra": {"field": {"p": 320',     # cut off mid-write
    '{"nodes": []}',                       # lacks algebra, complete, edges
    None,                                  # a valid document of another algebra
])
def test_corrupt_cache_file_is_a_miss(tmp_path, capsys, corrupt):
    cache = tmp_path / "cache"
    cold = tmp_path / "cold.json"
    args = ("explore", "--builtin", "hereditary", "--n", "2", "--format", "json",
            "--cache", str(cache))
    code, _, _ = run(capsys, *args, "--out", str(cold))
    assert code == 0
    [entry] = cache.glob("*.json")
    if corrupt is None:
        doc = json.loads(cold.read_text())
        doc["algebra"]["field"]["p"] = 3
        corrupt = json.dumps(doc)
    entry.write_text(corrupt)
    again = tmp_path / "again.json"
    code, out, _ = run(capsys, *args, "--out", str(again))
    assert code == 0
    assert "6 silting modules" in out and "hasse check: OK" in out
    assert again.read_bytes() == cold.read_bytes()
    assert entry.read_bytes() == cold.read_bytes()
    assert [p.name for p in cache.iterdir()] == [entry.name]


def test_cache_key_covers_version_and_format(monkeypatch):
    import silt
    import silt.cli as cli
    from silt import orders
    alg = orders.hereditary_reduction(2)
    limits = cli.ex.ExploreLimits()
    keys = {cli._cache_key(alg, limits)}
    assert cli.__version__ == silt.__version__
    monkeypatch.setattr(cli, "CACHE_FORMAT", cli.CACHE_FORMAT + 1)
    keys.add(cli._cache_key(alg, limits))
    monkeypatch.setattr(cli, "__version__", cli.__version__ + ".post1")
    keys.add(cli._cache_key(alg, limits))
    assert len(keys) == 3


def test_workers_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--builtin", "triangular_a2", "--workers", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments: --workers" in err


def test_tors_cache_option_is_gone(capsys):
    # tors explores afresh every run; only explore reads and writes the cache
    with pytest.raises(SystemExit) as exc:
        main(["tors", "--builtin", "hereditary", "--n", "1", "--cache", "d"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments: --cache" in err


def test_cache_env_override(tmp_path, capsys, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("SILT_CACHE", str(env_cache))
    code, _, _ = run(capsys, "explore", "--builtin", "hereditary", "--n", "1",
                     "--cache", str(tmp_path / "ignored"))
    assert code == 0
    assert env_cache.exists()
    assert not (tmp_path / "ignored").exists()


def test_tors_counts(capsys):
    code, out, _ = run(capsys, "tors", "--builtin", "hereditary", "--n", "2")
    assert code == 0
    assert "9 torsion classes" in out
    code, out, _ = run(capsys, "tors", "--builtin", "hereditary", "--n", "1")
    assert code == 0
    assert "3 torsion classes" in out


def test_tors_refuses_unsupported_family(capsys):
    code, _, err = run(capsys, "tors", "--builtin", "bass_v")
    assert code == 3
    assert "hereditary" in err


def test_tors_dot_output(tmp_path, capsys):
    out_path = tmp_path / "tors.dot"
    code, _, _ = run(capsys, "tors", "--builtin", "hereditary", "--n", "1",
                     "--format", "dot", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("digraph") and text.count("->") == 2


def test_explore_from_file(tmp_path, capsys):
    doc = {
        "field": {"p": 32003},
        "quiver": {"vertices": ["1", "2"],
                   "arrows": [["a1", "1", "2"], ["a2", "2", "1"]]},
        "relations": [[[1, ["a1", "a2"]]], [[1, ["a2", "a1"]]]],
        "nilpotency_bound": 2,
    }
    path = tmp_path / "nakayama.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "explore", "--file", str(path))
    assert code == 0
    assert "6 silting modules" in out


def test_verify_hereditary(capsys):
    code, out, _ = run(capsys, "verify", "hereditary", "--max-n", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_weak_order(capsys):
    code, out, _ = run(capsys, "verify", "weak-order", "--max-n", "1")
    assert code == 0
    assert "PASS" in out


def test_verify_reduction(capsys):
    code, out, _ = run(capsys, "verify", "reduction", "--n", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_weak_order_zero(capsys):
    code, out, _ = run(capsys, "verify", "weak-order", "--max-n", "0")
    assert code == 0
    assert "auslander n=0" in out and "auslander n=1" not in out
    assert "PASS" in out


@pytest.mark.parametrize("argv, option, minimum", [
    (("reduction", "--n", "0"), "--n", 1),
    (("reduction", "--n", "-2"), "--n", 1),
    (("hereditary", "--max-n", "0"), "--max-n", 1),
    (("hereditary", "--max-n", "-1"), "--max-n", 1),
    (("weak-order", "--max-n", "-1"), "--max-n", 0),
    (("all", "--max-n", "0"), "--max-n", 1),
])
def test_verify_rejects_values_below_minimum(capsys, argv, option, minimum):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 3
    assert f"error: {option} must be at least {minimum}" in err
    assert "PASS" not in out


@pytest.mark.parametrize("argv, option", [
    (("hereditary", "--n", "1"), "--n"),
    (("weak-order", "--n", "1"), "--n"),
    (("figures", "--max-n", "7", "--n", "9"), "--n"),
    (("all", "--n", "2"), "--n"),
    (("reduction", "--max-n", "1"), "--max-n"),
    (("figures", "--max-n", "7"), "--max-n"),
])
def test_verify_rejects_option_of_other_family(capsys, argv, option):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 3
    assert err.startswith(f"error: {option} ")
    assert "PASS" not in out


def test_verify_figures(capsys):
    code, out, _ = run(capsys, "verify", "figures")
    assert code == 0
    assert "PASS" in out


def test_bad_prime(capsys):
    code, _, err = run(capsys, "explore", "--builtin", "triangular_a2",
                       "--prime", "10")
    assert code == 3
    assert "prime" in err


def test_prime_above_bound_exits_3(capsys):
    code, _, err = run(capsys, "explore", "--builtin", "triangular_a2",
                       "--prime", "2147483647")
    assert code == 3
    assert "2**26" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    import silt.cli as cli
    monkeypatch.setattr(cli.orders, "poset_isomorphic", lambda a, b: False)
    code, out, _ = run(capsys, "verify", "reduction", "--n", "1")
    assert code == 2
    assert "FAIL" in out
    assert "MISMATCH" in out


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "2")
    assert code == 0
    assert "PASS" in out
