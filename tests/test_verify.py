"""The verification suites: the graded walk is the degree rule, the suite
counts are pinned, a symmetry fault planted on LG or OG is caught, and a
suite spread over forked workers reports and raises what its serial loop
does, leaving no child process behind."""

import errno
import os
import re
import threading
import time
from itertools import product

import pytest

from qschubert import cli, combinat as C, puzzle as P, ring, verify
from qschubert.ring import A, LG, OG, Space


def _grids():
    """(space, classes, degrees) for every G(m, N) with N <= 6 and every LG
    and OG with n <= 4, over the degrees their suites walk."""
    for N in range(1, 7):
        for m in range(N + 1):
            space = Space(A, m, N - m)
            yield pytest.param(space, C.partitions_in_box(m, N - m),
                               range(min(m, N - m) + 1), id=space.label)
    for n in range(1, 5):
        for kind in (LG, OG):
            space = Space(kind, None, n)
            yield pytest.param(space, C.strict_partitions_max(n),
                               range(2 * space.dim // space.q_degree + 1), id=space.label)


@pytest.mark.parametrize("space, classes, degrees", list(_grids()))
def test_the_graded_walk_is_the_degree_rule(space, classes, degrees):
    walk = list(verify._graded(space, classes, degrees))
    assert all(nus for *_, nus in walk)
    want = [(d, lam, mu, nu) for d in degrees for lam, mu, nu in product(classes, repeat=3)
            if space.in_degree(d, lam, mu, nu)]
    assert [(d, lam, mu, nu) for d, lam, mu, nus in walk for nu in nus] == want
    if space.kind != A:
        # three classes weigh at most 3 * dim: the next degree has no triple
        assert not any(space.in_degree(degrees[-1] + 1, *t) for t in product(classes, repeat=3))


@pytest.mark.parametrize("suite, checks", [
    (lambda: verify.suite_symmetry(max_N=5, max_n=3), 1487),
    (lambda: verify.suite_puzzle_conjecture(max_N=6), 20893),
    (lambda: verify.suite_line_numbers(max_n=3), 68),
], ids=["symmetry", "puzzle-conjecture", "line-numbers"])
def test_suite_counts_are_pinned(suite, checks):
    report = suite()
    assert report.ok, report.failures
    assert report.checked == checks


@pytest.mark.parametrize("kind", [LG, OG])
def test_an_isotropic_s3_fault_fails_the_symmetry_suite(monkeypatch, kind):
    # the product of a pair in the order lam > mu has one coefficient off by
    # one, so the invariant that reads it differs from its swapped order
    exact = ring.PRODUCT[kind]

    def skewed(space, lam, mu):
        coeffs = exact(space, lam, mu)
        if lam > mu and coeffs:
            key = min(coeffs)
            coeffs = {**coeffs, key: coeffs[key] + 1}
        return coeffs

    monkeypatch.setitem(ring.PRODUCT, kind, skewed)
    ring.clear_caches()
    try:
        report = verify.suite_symmetry(max_N=1, max_n=3)
    finally:
        ring.clear_caches()
    assert not report.ok
    assert all(f.startswith(f"S3 fails on {kind}(") for f in report.failures)


# _over: one forked worker per allowed CPU, results merged in item order.
# The allowed CPUs are patched in, never more than three.


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


_FORK = os.fork


def _on(monkeypatch, cpus: int) -> list:
    """Allow ``cpus`` CPUs.  Returns the list that each fork appends to;
    with one CPU, forking fails the test."""
    forks = []

    def counted():
        assert cpus > 1, "forked with one CPU allowed"
        forks.append(cpus)
        return _FORK()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.fixture(params=[1, 2, 3], ids=["1cpu", "2cpu", "3cpu"])
def cpus(request, monkeypatch):
    return request.param


def _serial_and_parallel(monkeypatch, cpus, suite):
    """The suite's report with one CPU and with ``cpus``, caches cleared
    before and after each run."""
    reports = []
    for n in (1, cpus):
        forks = _on(monkeypatch, n)
        ring.clear_caches()
        try:
            reports.append(suite())
        finally:
            ring.clear_caches()
        assert len(forks) == n - 1
    return reports


def test_over_is_the_serial_loop(monkeypatch, cpus):
    forks = _on(monkeypatch, cpus)
    assert verify._over(lambda x: x * x, range(7)) == [x * x for x in range(7)]
    assert verify._over(lambda x: x, []) == []
    assert verify._over(lambda x: -x, [5]) == [-5]
    assert len(forks) == cpus - 1  # one share per item at most


def _plant_off_by_one(monkeypatch):
    # test_puzzle_suite_compares_every_coefficient's fault: q^0 s[(1)] of
    # s[(1)] * s[(1, 1)] on G(2,4) is off by one
    exact, space = ring.PRODUCT[A], Space(A, 2, 2)

    def planted(sp, lam, mu):
        coeffs = exact(sp, lam, mu)
        if (sp, lam, mu) == (space, (1,), (1, 1)):
            coeffs = {**coeffs, ((1,), 0): coeffs.get(((1,), 0), 0) + 1}
        return coeffs

    monkeypatch.setitem(ring.PRODUCT, A, planted)


def _plant_missing_two_step_piece(monkeypatch):
    ups = [piece for piece in P._UP_PATTERNS_2 if piece != ("c", "0", "e")]
    monkeypatch.setitem(P._TABLES, "2step", P._index(ups, P._DOWN_PATTERNS_2))


def _plant_in_every_space(monkeypatch):
    # one coefficient of every product by a nonempty class is off by one:
    # every space fails, far more than five times
    exact = ring.PRODUCT[A]

    def planted(sp, lam, mu):
        coeffs = exact(sp, lam, mu)
        if mu:
            key = next(iter(coeffs))
            coeffs = {**coeffs, key: coeffs[key] + 1}
        return coeffs

    monkeypatch.setitem(ring.PRODUCT, A, planted)


@pytest.mark.parametrize("plant", [_plant_off_by_one, _plant_missing_two_step_piece,
                                   _plant_in_every_space],
                         ids=["off-by-one", "missing-2step-piece", "every-space"])
def test_a_parallel_puzzle_suite_reports_what_a_serial_one_does(monkeypatch, cpus, plant):
    plant(monkeypatch)
    serial, parallel = _serial_and_parallel(
        monkeypatch, cpus, lambda: verify.suite_puzzle_conjecture(max_N=5))
    assert not serial.ok and serial.failures
    assert parallel == serial
    if plant is _plant_in_every_space:
        assert len(serial.failures) == 5
        assert serial.failures[0].startswith("1step G(1,2) ")


def test_a_parallel_symmetry_suite_reports_what_a_serial_one_does(monkeypatch, cpus):
    exact = ring.PRODUCT[LG]

    def skewed(space, lam, mu):
        coeffs = exact(space, lam, mu)
        if lam > mu and coeffs:
            key = min(coeffs)
            coeffs = {**coeffs, key: coeffs[key] + 1}
        return coeffs

    monkeypatch.setitem(ring.PRODUCT, LG, skewed)
    serial, parallel = _serial_and_parallel(
        monkeypatch, cpus, lambda: verify.suite_symmetry(max_N=5, max_n=3))
    assert not serial.ok and parallel == serial
    assert serial.checked == 1487  # the pinned count: every check ran


def _raising(x):
    if x == 1:
        raise ValueError("planted at item 1")
    if x == 2:
        raise ring.ContractViolation("planted at item 2")
    return x


def test_the_first_exception_in_item_order_is_raised(monkeypatch, cpus):
    forks = _on(monkeypatch, cpus)
    # the second item falls to a worker whenever one is forked; the first
    # to the parent
    for items, want in [(range(6), ValueError("planted at item 1")),
                        ([0, 2, 3], ring.ContractViolation("planted at item 2")),
                        ([2, 0, 3, 1], ring.ContractViolation("planted at item 2"))]:
        with pytest.raises(Exception) as caught:
            verify._over(_raising, items)
        assert (type(caught.value), str(caught.value)) == (type(want), str(want))
    assert len(forks) == 3 * (cpus - 1)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_worker_that_exits_without_results_is_a_contract_violation(monkeypatch, cpus):
    forks = _on(monkeypatch, cpus)
    parent, exact = os.getpid(), ring.PRODUCT[A]

    def dying(space, lam, mu):
        if os.getpid() != parent:
            os._exit(1)
        return exact(space, lam, mu)

    monkeypatch.setitem(ring.PRODUCT, A, dying)
    ring.clear_caches()
    try:
        code, out = cli.run(["verify", "--suite", "puzzle-conjecture", "--max-N", "4"])
    finally:
        ring.clear_caches()
    assert len(forks) == cpus - 1
    assert code == 3
    assert re.fullmatch(r"contract violation: verify worker \d+ exited with status 1 "
                        r"without sending its results", out)


def test_a_parent_that_raises_kills_its_workers(monkeypatch, cpus):
    # the parent's share stops at once, while each worker would sleep a minute
    class Stop(BaseException):
        pass

    def check(x):
        if x == 0:
            raise Stop
        time.sleep(60)

    forks = _on(monkeypatch, cpus)
    started = time.monotonic()
    with pytest.raises(Stop):
        verify._over(check, range(cpus))
    assert time.monotonic() - started < 30
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("cpus, forks", [(2, 0), (3, 0), (3, 1)])
def test_a_failed_fork_leaves_its_shares_to_the_parent(monkeypatch, cpus, forks):
    _on(monkeypatch, cpus)
    fork, calls = os.fork, []

    def failing():
        calls.append(cpus)
        if len(calls) > forks:
            raise BlockingIOError(errno.EAGAIN, "planted")
        return fork()

    monkeypatch.setattr(os, "fork", failing)
    open_fds = len(os.listdir("/proc/self/fd"))
    assert verify._over(lambda x: x * x, range(7)) == [x * x for x in range(7)]
    assert len(calls) == forks + 1
    calls.clear()
    with pytest.raises(ValueError, match="^planted at item 1$"):
        verify._over(_raising, range(6))
    assert len(os.listdir("/proc/self/fd")) == open_fds  # no pipe left open


def test_another_thread_keeps_the_loop_in_process(monkeypatch):
    forks = _on(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert verify._over(lambda x: -x, range(4)) == [0, -1, -2, -3]
    finally:
        release.set()
        waiter.join()
    assert forks == []
    assert verify._over(lambda x: -x, range(4)) == [0, -1, -2, -3]
    assert forks == [2]
