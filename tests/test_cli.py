import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qschubert import cli, isotropic, ring, verify
from qschubert.typea import Report


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


@pytest.mark.parametrize("argv, want", [
    ("gw --space A --m 3 --n 3 --lambda 3,2,1 --mu 3,2,1 --nu 2,1 --d 1 --format json",
     '{"query": {"cmd": "gw", "d": 1, "lambda": [3, 2, 1], "m": 3, "mu": [3, 2, 1], "n": 3, '
     '"nu": [2, 1], "space": "A"}, "result": [{"c": 2, "d": 1, "nu": [2, 1]}]}'),
    ("gw --space LG --n 3 --lambda 2,1 --mu 2 --nu 3,2 --d 1 --format json",
     '{"query": {"cmd": "gw", "d": 1, "lambda": [2, 1], "m": null, "mu": [2], "n": 3, '
     '"nu": [3, 2], "space": "LG"}, "result": [{"c": 1, "d": 1, "nu": [3, 2]}]}'),
    ("gw --space OG --n 3 --lambda 3,2,1 --mu 1 --nu 2 --d 1 --method duality --format json",
     '{"query": {"cmd": "gw", "d": 1, "lambda": [3, 2, 1], "m": null, "mu": [1], "n": 3, '
     '"nu": [2], "space": "OG"}, "result": [{"c": 0, "d": 1, "nu": [2]}]}'),
    ("lr --m 3 --n 3 --lambda 2,1 --mu 2,1 --nu 3,2,1 --format json",
     '{"query": {"cmd": "lr", "lambda": [2, 1], "m": 3, "mu": [2, 1], "n": 3, '
     '"nu": [3, 2, 1]}, "result": [{"c": 2, "d": 0, "nu": [3, 2, 1]}]}'),
    ("lr --m 3 --n 3 --lambda 2,1 --mu 2,1 --nu 3,2,1 --method puzzle --format json",
     '{"query": {"cmd": "lr", "lambda": [2, 1], "m": 3, "mu": [2, 1], "n": 3, '
     '"nu": [3, 2, 1]}, "result": [{"c": 2, "d": 0, "nu": [3, 2, 1]}]}'),
    ("lr --m 2 --n 2 --lambda 1 --mu 1 --nu 2,1 --format json",
     '{"query": {"cmd": "lr", "lambda": [1], "m": 2, "mu": [1], "n": 2, '
     '"nu": [2, 1]}, "result": [{"c": 0, "d": 0, "nu": [2, 1]}]}'),
], ids=["gw-A", "gw-LG", "gw-OG-duality", "lr-pieri", "lr-puzzle", "lr-off-degree"])
def test_json_output_bytes(argv, want):
    assert run(*argv.split()) == (0, want)


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


def test_cached_terms_are_checked_as_element_terms(tmp_path):
    # a float coefficient, a bool degree or a negative degree is no term
    cache = tmp_path / "cache.jsonl"
    args = ("qprod", "--space", "A", "--m", "2", "--n", "2",
            "--lambda", "1", "--mu", "1", "--format", "json", "--cache", str(cache))
    expected = run(*args)
    key = json.loads(cache.read_text())["key"]
    for result in ([[[2], 0, 1.0]], [[[1, 1], True, 1]], [[[2], -1, 1]]):
        record = {"key": key, "version": cli.ENGINE_VERSION, "result": result}
        cache.write_text(json.dumps(record) + "\n")
        assert run(*args) == expected
        # the miss recomputed the product and appended it
        assert len(cache.read_text().splitlines()) == 2


def test_a_hex_keyed_record_is_a_miss(tmp_path):
    # a record is keyed by its query itself; one keyed by the SHA-256 of the
    # query, as the cache once wrote them, is never read
    cache = tmp_path / "cache.jsonl"
    args = ("qprod", "--space", "A", "--m", "2", "--n", "2",
            "--lambda", "1", "--mu", "1", "--cache", str(cache))
    expected = run(*args)
    query = json.loads(cache.read_text())["key"]
    assert query == {"cmd": "qprod", "space": "A", "m": 2, "n": 2, "lambda": [1], "mu": [1]}
    payload = json.dumps({"query": query, "version": cli.ENGINE_VERSION}, sort_keys=True)
    old = {"key": hashlib.sha256(payload.encode()).hexdigest(),
           "version": cli.ENGINE_VERSION, "result": [[[2, 2], 0, 99]]}
    cache.write_text(json.dumps(old) + "\n")
    assert run(*args) == expected


def test_undecodable_cache_lines_are_misses(tmp_path):
    cache = tmp_path / "cache.jsonl"
    args = ("qprod", "--space", "A", "--m", "2", "--n", "2",
            "--lambda", "1", "--mu", "1", "--cache", str(cache))
    expected = run(*args)
    # a bad line before a good record: the record is still a hit
    stored = b"\xff\n" + cache.read_bytes()
    cache.write_bytes(stored)
    assert run(*args) == expected and cache.read_bytes() == stored
    # only garbage: a miss, computed and appended
    cache.write_bytes(b"\xff\xfe{\n")
    assert run(*args) == expected
    lines = cache.read_bytes().splitlines()
    assert lines[0] == b"\xff\xfe{" and len(lines) == 2
    assert json.loads(lines[1])["key"]["cmd"] == "qprod"


def test_an_unusable_cache_path_is_a_domain_error(tmp_path, monkeypatch):
    # a directory fails the lookup, a file in a missing directory the store
    args = ("qprod", "--space", "A", "--m", "2", "--n", "2", "--lambda", "1", "--mu", "1")
    missing = tmp_path / "missing" / "cache.jsonl"
    monkeypatch.setenv("QSCHUBERT_CACHE", str(missing))
    for path, got in ((tmp_path, run(*args, "--cache", str(tmp_path))),
                      (missing, run(*args, "--cache", str(missing))), (missing, run(*args))):
        assert got[0] == 1 and got[1].startswith("error: ") and repr(str(path)) in got[1]
    assert list(tmp_path.iterdir()) == []


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


def _gw_method_choices():
    gw = cli.build_parser()._subparsers._group_actions[0].choices["gw"]
    return next(action.choices for action in gw._actions if action.dest == "method")


def test_gw_methods_select_a_route_or_are_rejected():
    triples = {"A": ("--m", "3", "--n", "3", "--lambda", "3,2,1", "--mu", "3,2,1",
                     "--nu", "2,1", "--d", "1"),
               "LG": ("--n", "2", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1",
                      "--d", "2"),
               "OG": ("--n", "2", "--lambda", "2,1", "--mu", "", "--nu", "", "--d", "0")}
    # every product route of ring.ROUTES, and the two invariant-only routes
    accepted = {space: set(ring.ROUTES[space]) for space in triples}
    accepted["A"].add("puzzle")
    accepted["OG"].add("duality")
    assert accepted == {"A": {"pieri", "puzzle"}, "LG": {"qtilde", "pieri"},
                        "OG": {"qtilde", "pieri", "duality"}}
    choices = _gw_method_choices()
    assert set().union(*accepted.values()) == set(choices)
    for space, args in triples.items():
        default = run("gw", "--space", space, *args)
        assert default[0] == 0
        for method in choices:
            got = run("gw", "--space", space, *args, "--method", method)
            assert got == (default if method in accepted[space] else
                           (2, f"usage error: --method {method} is not available on space {space}"))


def test_qtilde_is_the_e_basis_route_whatever_is_production(monkeypatch):
    from qschubert import qpoly

    structure, calls = qpoly._structure, []

    def spy(*args):
        calls.append(args)
        return structure(*args)

    ring.clear_caches()
    monkeypatch.setattr(qpoly, "_structure", spy)
    for kind in (ring.LG, ring.OG):
        monkeypatch.setitem(ring.PRODUCT, kind, ring.giambelli_fold)
    try:
        for space, args in (("LG", ("--n", "2", "--lambda", "2,1", "--mu", "2,1",
                                    "--nu", "2,1", "--d", "2")),
                            ("OG", ("--n", "3", "--lambda", "3,1", "--mu", "3",
                                    "--nu", "3,2", "--d", "1"))):
            calls.clear()
            default = run("gw", "--space", space, *args)
            assert default == (0, "1") and not calls
            assert run("gw", "--space", space, *args, "--method", "qtilde") == default
            assert calls
    finally:
        ring.clear_caches()


def test_a_failing_duality_report_is_a_contract_violation(monkeypatch):
    planted = Report(ok=False, checked=1, failures=["planted", "second"])
    monkeypatch.setattr(isotropic, "duality", lambda *args: planted)
    assert run("gw", "--space", "OG", "--n", "2", "--lambda", "2,1", "--mu", "", "--nu", "",
               "--d", "0", "--method", "duality") == (3, "contract violation: planted; second")


def test_duality_on_og_with_n_zero_names_the_callers_n():
    assert run("gw", "--space", "OG", "--n", "0", "--lambda", "0", "--mu", "0", "--nu", "0",
               "--d", "0", "--method", "duality") == \
        (1, "error: duality needs n >= 1 to pair with LG(n-1, 2n-2): n=0")


def test_pieri_method_on_isotropic_spaces_is_the_fold(monkeypatch):
    from qschubert import qpoly

    def unavailable(*args):
        raise AssertionError("the e-basis route was used")

    monkeypatch.setattr(qpoly, "_structure", unavailable)
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


def test_string_checks_its_space_and_partition_once(monkeypatch):
    for m, n in (("2", "-1"), ("-1", "2")):
        assert run("string", "--m", m, "--n", n, "--lambda", "0") == \
            run("qprod", "--m", m, "--n", n, "--lambda", "0", "--mu", "0")
    assert run("string", "--m", "-1", "--n", "2", "--lambda", "0") == \
        (1, "error: negative size: m=-1, n=2")
    assert run("string", "--m", "2", "--n", "2", "--lambda", "3") == \
        (1, "error: (3,) does not fit in a 2x2 rectangle")
    assert run("string", "--m", "2", "--n", "2", "--lambda", "1", "--d", "3") == \
        (1, "error: d=3 out of range for a 2x2 rectangle")
    seen = []
    check = cli.Space.check
    monkeypatch.setattr(cli.Space, "check", lambda s, lam: seen.append(lam) or check(s, lam))
    code, out = run("string", "--m", "4", "--n", "5", "--lambda", "4,4,3,1", "--d", "2",
                    "--format", "json")
    assert code == 0 and seen == [(4, 4, 3, 1)]
    assert json.loads(out)["result"] == {"I": "101101001", "w": [2, 5, 7, 8, 1, 3, 4, 6, 9],
                                         "J2": "101202112"}


def test_verify_json_pass():
    code, out = run("verify", "--suite", "line-numbers", "--max-n", "2", "--format", "json")
    record = json.loads(out)
    assert code == 0 and set(record) == {"suite", "ok", "checks", "failures", "seconds"}
    assert record["suite"] == "line-numbers" and record["ok"] is True
    assert record["checks"] > 0 and record["failures"] == [] and record["seconds"] >= 0
    assert run("verify", "--suite", "line-numbers", "--max-n", "2") == \
        (0, f"PASS ({record['checks']} checks)")


def test_verify_json_fail(monkeypatch):
    def failing(max_n: int = 4):
        return Report(ok=False, checked=3, failures=["first", "second"])

    monkeypatch.setitem(verify.SUITES, "duality", failing)
    code, out = run("verify", "--suite", "duality", "--format", "json")
    record = json.loads(out)
    assert code == 1 and record["ok"] is False and record["checks"] == 3
    assert record["failures"] == ["first", "second"]
    assert run("verify", "--suite", "duality") == (1, "FAIL (3 checks) first: first")


def test_verify_json_with_no_checks():
    code, out = run("verify", "--suite", "puzzle-conjecture", "--max-N", "-3",
                    "--format", "json")
    record = json.loads(out)
    assert code == 1 and record["ok"] is False
    assert record["checks"] == 0 and record["failures"] == []


def _mostly(valid, invalid):
    """Nine draws in ten from ``valid``."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 0 else valid)


_SMALL = st.integers(-1, 4).map(str)
_PARTITION_TEXT = _mostly(
    st.lists(st.integers(0, 5), max_size=5).map(
        lambda xs: ",".join(map(str, sorted(xs, reverse=True)))),
    st.sampled_from(["", "x", "1,,2", " 2, 1 ", "1,2", "3,-1"]))
_OPTIONS = {
    "--space": _mostly(st.sampled_from(["A", "LG", "OG"]), st.just("B")),
    "--m": _SMALL, "--n": _SMALL,
    "--lambda": _PARTITION_TEXT, "--mu": _PARTITION_TEXT, "--nu": _PARTITION_TEXT,
    "--d": st.integers(-1, 3).map(str),
    "--method": st.sampled_from(["pieri", "qtilde", "puzzle", "duality", "x"]),
    "--format": _mostly(st.sampled_from(["text", "json"]), st.just("xml")),
    "--type": _mostly(st.sampled_from(["1step", "2step"]), st.just("3step")),
    "--nw": st.text("0123", max_size=6), "--ne": st.text("0123", max_size=6),
    "--s": st.text("0123", max_size=6),
    "--suite": _mostly(st.sampled_from(sorted(verify.SUITES)), st.just("x")),
    "--max-N": st.integers(-1, 4).map(str), "--max-n": st.integers(-1, 2).map(str),
    "--max-weight": st.integers(-1, 6).map(str),
}
# (options every call gets, options a call may get) per command
_COMMANDS = {
    "qprod": ("--lambda --mu", "--format"),
    "gw": ("--lambda --mu --nu --d", "--method --format"),
    "lr": ("--m --n --lambda --mu --nu", "--method --format"),
    "puzzle": ("--type --nw --ne --s", "--format"),
    "string": ("--m --n --lambda", "--d --format"),
    "verify": ("--suite", "--max-N --max-n --max-weight --format"),
    "nope": ("", ""),
}


@st.composite
def _argv(draw, caches):
    """A command line with the command's own options, a space and the sizes
    it needs; one in ten misses an option, one in ten has a foreign one."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = (names.split() for names in _COMMANDS[command])
    names = required + draw(st.lists(st.sampled_from(optional or ["--format"]), unique=True))
    argv = [command]
    if command in ("qprod", "gw"):
        space = draw(st.sampled_from(["A", "LG", "OG"]))
        argv += ["--space", space]
        names += ["--m", "--n"] if space == "A" else ["--n"]
    if names and draw(st.integers(0, 9)) == 0:
        names.remove(draw(st.sampled_from(names)))
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(sorted(_OPTIONS))))
    for name in names:
        argv += [name, draw(_OPTIONS[name])]
    if command == "qprod":
        argv += ["--cache", draw(caches)]
    return argv


@settings(max_examples=200, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_run_never_raises(tmp_path, data):
    # a usable cache path, or a directory or a path under a missing one
    caches = _mostly(st.just(str(tmp_path / "cache.jsonl")),
                     st.sampled_from([str(tmp_path), str(tmp_path / "missing" / "c.jsonl")]))
    argv = data.draw(_argv(caches))
    code, out = cli.run(argv)
    assert code in (0, 1, 2, 3) and isinstance(out, str)


@pytest.mark.parametrize("kind, nw, ne, s, count", [
    ("1step", "0" * 1100, "0" * 1100, "0" * 1100, "1"),
    ("1step", "01" * 550, "10" * 550, "01" * 550, "0"),
    ("2step", "012" * 367, "210" * 367, "012" * 367, "0"),
    ("1step", "", "", "", "1"),
    ("2step", "", "", "", "1")],
    ids=["1step-zeros", "1step-01", "2step-012", "1step-empty", "2step-empty"])
def test_puzzle_command_on_wide_and_empty_boundaries(kind, nw, ne, s, count):
    # rows of 1,100 cells: no recursion-depth traceback, no truncated width
    assert run("puzzle", "--type", kind, "--nw", nw, "--ne", ne, "--s", s) == (0, count)
