import json
import os
import subprocess
import sys

import pytest

from covertower.cache import (
    append_q_records,
    cache_path,
    cache_resume,
    read_cache,
)
from covertower import errors
from covertower.cli import main


def _rec(n, k, q, key):
    return {
        "n": n, "k": k, "q": q, "p": q, "m": 1,
        "x": [key], "y": [0], "t": [1], "semisimple": True,
        "korder": k, "non_canonical": False,
        "canonical_key": [[key], [0]],
        "betti_proxy": 0, "proxy_prime": 31991,
        "second_proxy": None, "second_prime": None,
    }


def test_cache_roundtrip_and_resume(tmp_path):
    cdir = str(tmp_path)
    path = cache_path(cdir, 4, 4)
    plan = [(4, 4, q) for q in (2, 3, 5)]
    assert cache_resume(cdir, plan) == plan  # empty cache: full plan
    append_q_records(path, 4, 4, 2, [_rec(4, 4, 2, 0)])
    append_q_records(path, 4, 4, 3, [])
    assert cache_resume(cdir, plan) == [(4, 4, 5)]
    append_q_records(path, 4, 4, 5, [_rec(4, 4, 5, 1), _rec(4, 4, 5, 2)])
    assert cache_resume(cdir, plan) == []  # complete cache: empty plan
    done, records, bad = read_cache(path)
    assert done == {(4, 4, 2): 1, (4, 4, 3): 0, (4, 4, 5): 2}
    assert len(records) == 3
    assert bad == 0


def test_cache_quarantines_corrupt_lines(tmp_path):
    cdir = str(tmp_path)
    path = cache_path(cdir, 4, 4)
    append_q_records(path, 4, 4, 2, [_rec(4, 4, 2, 0)])
    with open(path, "a") as fh:
        fh.write("{this is : not json\n")
    done, records, bad = read_cache(path)
    assert bad == 1
    assert (4, 4, 2) in done
    assert os.path.exists(path + ".quarantine")
    # rereading after quarantine is clean for the marked key
    assert cache_resume(cdir, [(4, 4, 2), (4, 4, 3)]) == [(4, 4, 3)]


def test_cache_incomplete_key_recomputed(tmp_path):
    cdir = str(tmp_path)
    path = cache_path(cdir, 4, 4)
    # class line without its completion marker (simulated crash)
    with open(path, "w") as fh:
        body = dict(_rec(4, 4, 7, 0), schema=1, kind="class")
        fh.write(json.dumps(body) + "\n")
    done, records, bad = read_cache(path)
    assert done == {} and records == [] and bad == 0
    assert cache_resume(cdir, [(4, 4, 7)]) == [(4, 4, 7)]


def test_cache_unreadable_dir():
    with pytest.raises(OSError):
        cache_resume("/nonexistent-cache-dir-xyz", [(4, 4, 2)])


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-command"])
    assert exc.value.code == 1


def test_cli_witt(capsys):
    assert main(["witt", "5"]) == 0
    assert capsys.readouterr().out.strip() == "14"


def test_cli_volume_prefix(capsys):
    assert main(["volume", "--terms", "2000000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2.00768200668")


def test_cli_kummer_and_quat_verify(capsys):
    assert main(["kummer"]) == 0
    assert main(["quat-verify"]) == 0


def test_cli_local_layers(capsys):
    assert main(["local-layers", "--nmax", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["layers"] == [9, 3]


def test_cli_pq_and_powerful_and_exhaust(tmp_path, capsys):
    f = tmp_path / "c5.txt"
    f.write_text("1\naaaaa\n")
    assert main(["pq", str(f), "-p", "5", "--class", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ranks"] == [1, 0]
    assert main(["powerful", str(f), "-p", "3"]) == 0
    assert capsys.readouterr().out.strip() == "True"
    assert main(["exhaust", str(f), "-p", "3", "-n", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["conclusion"] == "satisfied"


def test_cli_pq_batch(tmp_path, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "free2.txt").write_text("2\n")
    (d / "cyc5.txt").write_text("1\naaaaa\n")
    assert main(["pq", str(d), "-p", "3", "--class", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "name,p,d1,d2,d3,label,p_powerful"
    rows = {line.split(",")[0]: line for line in out[1:]}
    assert rows["cyc5.txt"].endswith("bounded,True")
    assert rows["free2.txt"].split(",")[2:5] == ["2", "3", "5"]


def test_cli_survey_cache_determinism(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    args = ["twist-survey", "-n", "4", "-k", "4", "--qmax", "25",
            "--cache-dir", cdir, "--format", "csv",
            "--output", str(tmp_path / "s.csv")]
    assert main(args) == 0
    first_out = capsys.readouterr().out
    first_csv = (tmp_path / "s.csv").read_bytes()
    assert main(args) == 0  # warm cache
    second_out = capsys.readouterr().out
    second_csv = (tmp_path / "s.csv").read_bytes()
    assert first_out == second_out
    assert first_csv == second_csv
    assert b"23" in first_csv


def test_cli_survey_tasks_agree(tmp_path, capsys):
    base = ["twist-survey", "-n", "4", "-k", "4", "--qmax", "15"]
    assert main(base) == 0
    serial = capsys.readouterr().out
    assert main(base + ["--tasks", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_cli_survey_rejects_bad_params(capsys):
    assert main(["twist-survey", "-n", "0", "-k", "4", "--qmax", "10"]) == 1
    assert main(["twist-survey", "-n", "4", "-k", "4", "--qmax", "10",
                 "--proxy-prime", "10"]) == 1


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "covertower.cli", "witt", "3"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "5"


def _survey(args, capsys):
    rc = main(["twist-survey", "-n", "4", "-k", "4"] + args)
    return rc, capsys.readouterr().out


def test_cli_survey_json_warm_equals_fresh(tmp_path, capsys):
    """A report resumed from a cache is byte-identical to a fresh one."""
    cdir = str(tmp_path / "cache")
    fresh, warm = tmp_path / "fresh.json", tmp_path / "warm.json"
    assert _survey(["--qmax", "11", "--format", "json", "--output", str(fresh)], capsys)[0] == 0
    assert _survey(["--qmax", "7", "--cache-dir", cdir], capsys)[0] == 0
    assert _survey(["--qmax", "11", "--cache-dir", cdir, "--format", "json",
                    "--output", str(warm)], capsys)[0] == 0
    assert fresh.read_bytes() == warm.read_bytes()


def test_cli_survey_quarantines_each_bad_line_once(tmp_path, capsys):
    """A garbage line in the cache is quarantined once, not on every run,
    and the report stays byte-identical to a fresh one."""
    cdir = str(tmp_path / "cache")
    fresh, warm = tmp_path / "fresh.json", tmp_path / "warm.json"
    assert _survey(["--qmax", "7", "--format", "json", "--output", str(fresh)], capsys)[0] == 0
    assert _survey(["--qmax", "7", "--cache-dir", cdir], capsys)[0] == 0
    path = cache_path(cdir, 4, 4)
    with open(path, "a") as fh:
        fh.write("{garbage\n")
    for _ in range(3):
        assert _survey(["--qmax", "7", "--cache-dir", cdir, "--format", "json",
                        "--output", str(warm)], capsys)[0] == 0
        assert fresh.read_bytes() == warm.read_bytes()
    with open(path + ".quarantine") as fh:
        assert fh.read() == "{garbage\n"


def test_cli_pq_runs_p2_beyond_class2(tmp_path, capsys):
    f = tmp_path / "free2.txt"
    f.write_text("2\n")
    assert main(["pq", str(f), "-p", "2", "--class", "3"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["ranks"] == [2, 3, 5]


def test_cli_refuses_proxy_prime_beyond_dense_bound(capsys):
    big = "4294967311"  # prime, past 2^31
    for argv in (
        ["twist-survey", "-n", "4", "-k", "4", "--qmax", "7", "--proxy-prime", big],
        ["twist-survey", "-n", "4", "-k", "4", "--qmax", "7", "--second-prime", big],
        ["twist-cover", "-n", "4", "-k", "4", "-q", "7", "--proxy-prime", big],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
    assert main(["twist-cover", "-n", "4", "-k", "4", "-q", "7",
                 "--proxy-prime", str(2**31 - 1)]) == 0


def test_cli_survey_cache_keyed_by_config(tmp_path, capsys):
    """Records computed without --exact-k are not served to an --exact-k
    run (or under another proxy prime) from the same cache directory."""
    cdir = str(tmp_path / "cache")
    rc, out = _survey(["--qmax", "30", "--cache-dir", cdir], capsys)
    assert rc == 0 and "classes_total=3" in out.splitlines()
    rc, out = _survey(["--qmax", "30", "--cache-dir", cdir, "--exact-k"], capsys)
    assert rc == 0 and "classes_total=2" in out.splitlines()
    rc, out = _survey(["--qmax", "30", "--cache-dir", cdir, "--tasks", "2",
                       "--proxy-prime", "101"], capsys)
    assert rc == 0 and "classes_total=3" in out.splitlines()
    path = cache_path(cdir, 4, 4)
    for config, count in [
        ({"exact_k": False, "proxy_prime": 31991, "second_prime": None}, 3),
        ({"exact_k": True, "proxy_prime": 31991, "second_prime": None}, 2),
        ({"exact_k": False, "proxy_prime": 101, "second_prime": None}, 3),
        ({"exact_k": False, "proxy_prime": 101, "second_prime": 7}, 0),
    ]:
        done, records, bad = read_cache(path, config)
        assert len(records) == count and bad == 0
        assert all(r["proxy_prime"] == config["proxy_prime"] for r in records)
        assert all("schema" not in r and "kind" not in r for r in records)


def test_cli_survey_resumes_after_crash(tmp_path, capsys, monkeypatch):
    """Every q finished before a crash is in the cache; the rerun computes
    only the rest."""
    from covertower import cli

    cdir = str(tmp_path / "cache")
    real = cli.compute_q_records
    calls = []

    def crash_at_23(n, k, q, *rest):
        if q == 23:
            raise RuntimeError("simulated crash")
        calls.append(q)
        return real(n, k, q, *rest)

    monkeypatch.setattr(cli, "compute_q_records", crash_at_23)
    with pytest.raises(RuntimeError):
        main(["twist-survey", "-n", "4", "-k", "4", "--qmax", "25", "--cache-dir", cdir])
    finished = calls[:]
    assert finished == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    done, _, _ = read_cache(cache_path(cdir, 4, 4))
    assert sorted(q for _, _, q in done) == finished

    calls.clear()
    monkeypatch.setattr(cli, "compute_q_records", lambda *a: calls.append(a[2]) or real(*a))
    rc, out = _survey(["--qmax", "25", "--cache-dir", cdir], capsys)
    assert rc == 0 and calls == [23, 25]
    assert out == _survey(["--qmax", "25"], capsys)[1]


@pytest.mark.parametrize(
    "error,code",
    [
        (errors.DomainError("undefined for this input"), 1),
        (errors.MalformedWordError("bad letter"), 1),
        (errors.ResourceError("guard tripped"), 3),
        (errors.InternalInvariantError("drifted"), 4),
    ],
)
def test_cli_error_exit_codes(error, code, capsys, monkeypatch):
    from covertower import cli

    def fail(_k):
        raise error

    monkeypatch.setattr(cli, "witt_cumulative", fail)
    assert main(["witt", "3"]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_resource_guard_exit_code(tmp_path, capsys, monkeypatch):
    from covertower import pquotient

    f = tmp_path / "free2.txt"
    f.write_text("2\n")
    monkeypatch.setattr(pquotient, "MAX_LAYER", 0)
    assert main(["pq", str(f), "-p", "3", "--class", "3"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_malformed_presentation_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("1\nab\n")
    assert main(["pq", str(f), "-p", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_twist_cover_above_degree_eight(capsys):
    """q = 2^9 runs (it was refused as "extension degree 9"), and a field
    too large for its tables is refused with the resource exit code."""
    assert main(["twist-cover", "-n", "2", "-k", "7", "-q", "512"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "classes=1"
    assert json.loads(out[0])["m"] == 9
    assert main(["twist-cover", "-n", "2", "-k", "7", "-q", str(2**17)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
