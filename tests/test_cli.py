import json

from qschubert import cli


def run(*argv):
    return cli.run(list(argv))


def test_gw_command_golden():
    code, out = run("gw", "--space", "A", "--m", "3", "--n", "3",
                    "--lambda", "3,2,1", "--mu", "3,2,1", "--nu", "2,1", "--d", "1")
    assert (code, out) == (0, "2")


def test_gw_puzzle_method_matches():
    base = run("gw", "--space", "A", "--m", "3", "--n", "3",
               "--lambda", "3,2,1", "--mu", "3,2,1", "--nu", "2,1", "--d", "1")
    via_puzzle = run("gw", "--space", "A", "--m", "3", "--n", "3",
                     "--lambda", "3,2,1", "--mu", "3,2,1", "--nu", "2,1",
                     "--d", "1", "--method", "puzzle")
    assert base == via_puzzle == (0, "2")


def test_qprod_command_golden():
    code, out = run("qprod", "--space", "A", "--m", "3", "--n", "3",
                    "--lambda", "3,2,1", "--mu", "2", "--format", "text")
    assert (code, out) == (0, "s[3,3,2] + q*s[2] + q*s[1,1]")


def test_puzzle_command_golden():
    code, out = run("puzzle", "--type", "1step", "--nw", "101", "--ne", "101",
                    "--s", "011")
    assert (code, out) == (0, "1")


def test_string_command():
    code, out = run("string", "--m", "4", "--n", "5", "--lambda", "4,4,3,1",
                    "--d", "2")
    assert code == 0
    assert out.splitlines() == ["I=101101001", "w=2,5,7,8,1,3,4,6,9",
                                "J2=101202112"]


def test_gw_isotropic_spaces():
    code, out = run("gw", "--space", "LG", "--n", "2", "--lambda", "2,1",
                    "--mu", "2,1", "--nu", "2,1", "--d", "2")
    assert (code, out) == (0, "1")
    code, out = run("gw", "--space", "OG", "--n", "2", "--lambda", "2,1",
                    "--mu", "", "--nu", "", "--d", "0")
    assert (code, out) == (0, "1")
    via_duality = run("gw", "--space", "OG", "--n", "2", "--lambda", "2,1",
                      "--mu", "", "--nu", "", "--d", "0", "--method", "duality")
    assert via_duality == (0, "1")


def test_lr_command_both_methods():
    for method in ("pieri", "puzzle"):
        code, out = run("lr", "--m", "2", "--n", "2", "--lambda", "1",
                        "--mu", "1", "--nu", "1,1", "--method", method)
        assert (code, out) == (0, "1")


def test_empty_partition_spellings():
    for spelling in ("0", ""):
        code, out = run("qprod", "--space", "LG", "--n", "2",
                        "--lambda", spelling, "--mu", "1")
        assert (code, out) == (0, "s[1]")


def test_exit_codes():
    code, _ = run("gw", "--space", "A", "--m", "2", "--n", "2",
                  "--lambda", "3", "--mu", "1", "--nu", "1", "--d", "0")
    assert code == 1  # partition outside the box is a domain error
    code, _ = run("qprod", "--space", "LG", "--n", "2", "--lambda", "2,2",
                  "--mu", "1")
    assert code == 1  # non-strict partition on LG
    code, _ = run("nosuchcommand")
    assert code == 2
    code, _ = run("gw", "--space", "A", "--m", "2", "--n", "2",
                  "--lambda", "1,x", "--mu", "1", "--nu", "1", "--d", "0")
    assert code == 2  # malformed partition text is a usage error
    code, _ = run("gw", "--space", "LG", "--lambda", "1", "--mu", "1",
                  "--nu", "1", "--d", "0")
    assert code == 2  # missing --n
    code, _ = run("verify", "--suite", "nonsense")
    assert code == 2


def test_json_output_round_trips():
    code, out = run("qprod", "--space", "A", "--m", "2", "--n", "2",
                    "--lambda", "2,1", "--mu", "1", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True) == out
    assert parsed["result"] == [{"c": 1, "d": 1, "nu": []},
                                {"c": 1, "d": 0, "nu": [2, 2]}]


def test_output_determinism():
    args = ("qprod", "--space", "OG", "--n", "3", "--lambda", "2,1",
            "--mu", "2", "--format", "json")
    assert run(*args) == run(*args)


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache.jsonl"
    args = ("qprod", "--space", "A", "--m", "3", "--n", "3",
            "--lambda", "3,2,1", "--mu", "3,2,1", "--format", "json",
            "--cache", str(cache))
    cold = run(*args)
    assert cache.exists() and cache.read_text().strip()
    warm = run(*args)
    no_cache = run(*args[:-2])
    assert cold == warm == no_cache
    # a second identical run appends nothing new
    assert len(cache.read_text().splitlines()) == 1


def test_cache_ignores_stale_versions(tmp_path):
    cache = tmp_path / "cache.jsonl"
    args = ("qprod", "--space", "A", "--m", "2", "--n", "2",
            "--lambda", "1", "--mu", "1", "--cache", str(cache))
    expected = run(*args)
    lines = cache.read_text().splitlines()
    record = json.loads(lines[0])
    record["version"] = "0.0.0"
    record["result"] = [[[2, 2], 5, 99]]
    cache.write_text(json.dumps(record) + "\n")
    assert run(*args) == expected


def test_unreadable_cache_records_are_misses(tmp_path):
    cache = tmp_path / "cache.jsonl"
    args = ("qprod", "--space", "A", "--m", "2", "--n", "2",
            "--lambda", "1", "--mu", "1", "--cache", str(cache))
    expected = run(*args)
    key = json.loads(cache.read_text())["key"]
    for broken in ({"key": key, "version": cli.ENGINE_VERSION},
                   {"key": key, "version": cli.ENGINE_VERSION, "result": [[[1], 0]]},
                   {"key": key, "version": cli.ENGINE_VERSION, "result": [[[1, 2], 0, 1]]},
                   {"key": key, "version": cli.ENGINE_VERSION, "result": [[[1, 1], 0, "x"]]},
                   {"key": key, "version": cli.ENGINE_VERSION, "result": [[[3], 0, 1]]},
                   {"key": key, "version": cli.ENGINE_VERSION, "result": [[[2], -1, 1]]},
                   [key]):
        cache.write_text(json.dumps(broken) + "\n")
        assert run(*args) == expected
        # the recomputed result is appended and then served
        assert json.loads(cache.read_text().splitlines()[-1])["key"] == key
        assert run(*args) == expected


def test_verify_with_no_checks_fails():
    code, out = run("verify", "--suite", "puzzle-conjecture", "--max-N", "-3")
    assert code == 1 and "no checks" in out


def test_verify_command_smoke():
    code, out = run("verify", "--suite", "line-numbers", "--max-n", "2")
    assert code == 0 and out.startswith("PASS")


def test_main_prints(capsys):
    assert cli.main(["puzzle", "--type", "2step", "--nw", "102021",
                     "--ne", "102021", "--s", "010212"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_engine_version_is_the_package_version():
    import qschubert
    assert cli.ENGINE_VERSION == qschubert.__version__


def test_lr_without_m_is_a_usage_error():
    code, _ = run("lr", "--n", "2", "--lambda", "1", "--mu", "1", "--nu", "1,1")
    assert code == 2


def test_m_on_isotropic_spaces_is_a_usage_error():
    for space in ("LG", "OG"):
        code, _ = run("qprod", "--space", space, "--m", "2", "--n", "2",
                      "--lambda", "1", "--mu", "1")
        assert code == 2
        code, _ = run("gw", "--space", space, "--m", "2", "--n", "2",
                      "--lambda", "1", "--mu", "1", "--nu", "1", "--d", "0")
        assert code == 2


def test_negative_sizes_are_domain_errors():
    for m, n in (("2", "-1"), ("-1", "2")):
        code, _ = run("qprod", "--space", "A", "--m", m, "--n", n,
                      "--lambda", "", "--mu", "")
        assert code == 1
    code, _ = run("qprod", "--space", "LG", "--n", "-1", "--lambda", "", "--mu", "")
    assert code == 1


def test_gw_methods_select_a_route_or_are_rejected():
    triples = {"A": ("--m", "3", "--n", "3", "--lambda", "3,2,1", "--mu", "3,2,1",
                     "--nu", "2,1", "--d", "1"),
               "LG": ("--n", "2", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1",
                      "--d", "2"),
               "OG": ("--n", "2", "--lambda", "2,1", "--mu", "", "--nu", "", "--d", "0")}
    accepted = {"A": ("pieri", "puzzle"), "LG": ("qtilde", "pieri"),
                "OG": ("qtilde", "pieri", "duality")}
    for space, args in triples.items():
        default = run("gw", "--space", space, *args)
        assert default[0] == 0
        for method in ("pieri", "qtilde", "puzzle", "duality"):
            got = run("gw", "--space", space, *args, "--method", method)
            assert got == (default if method in accepted[space] else (2, got[1]))


def test_pieri_method_on_isotropic_spaces_is_the_fold(monkeypatch):
    from qschubert import isotropic

    def unavailable(*args):
        raise AssertionError("the e-basis route was used")

    monkeypatch.setattr(isotropic, "qtilde_structure", unavailable)
    monkeypatch.setattr(isotropic, "ptilde_structure", unavailable)
    code, out = run("gw", "--space", "LG", "--n", "2", "--lambda", "2,1",
                    "--mu", "2,1", "--nu", "2,1", "--d", "2", "--method", "pieri")
    assert (code, out) == (0, "1")
    code, out = run("gw", "--space", "OG", "--n", "2", "--lambda", "2,1",
                    "--mu", "", "--nu", "", "--d", "0", "--method", "pieri")
    assert (code, out) == (0, "1")


def test_lr_checks_nu_on_both_methods():
    for method in ("pieri", "puzzle"):
        code, out = run("lr", "--m", "2", "--n", "2", "--lambda", "1", "--mu", "1",
                        "--nu", "3", "--method", method)
        assert code == 1 and "does not fit" in out


def test_verify_bounds_outside_the_suite_signature_are_usage_errors():
    code, out = run("verify", "--suite", "duality", "--max-N", "3")
    assert code == 2 and out.startswith("bad bounds")


def test_verify_type_errors_inside_a_suite_are_internal(monkeypatch):
    from qschubert import verify

    def broken(max_n: int = 4):
        return len(max_n)  # an engine bug, not a bad bound

    monkeypatch.setitem(verify.SUITES, "duality", broken)
    code, out = run("verify", "--suite", "duality", "--max-n", "2")
    assert code == 3 and "internal error" in out
