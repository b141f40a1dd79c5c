import functools
import time
import weakref

import pytest

from nyscode.nystrom import CodeKernel

SUITE_BUDGET_SECONDS = 600.0

_session_start = time.monotonic()


@pytest.fixture
def k_builds(monkeypatch):
    """A weak reference to the K of every ``CodeKernel`` that builds one during the test,
    in build order: the kernel builds K the first time it is read."""
    built = []
    real = CodeKernel.K.func

    def build(kernel):
        K = real(kernel)
        built.append(weakref.ref(K))
        return K

    spy = functools.cached_property(build)
    spy.__set_name__(CodeKernel, "K")
    monkeypatch.setattr(CodeKernel, "K", spy)
    return built


def pytest_sessionfinish(session, exitstatus):
    # acceptance criterion 10: the whole suite stays under its wall-clock budget
    elapsed = time.monotonic() - _session_start
    ok = elapsed < SUITE_BUDGET_SECONDS
    verdict = "PASS" if ok else "FAIL"
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    line = f"ACCEPTANCE 10 (full suite wall clock < {SUITE_BUDGET_SECONDS:.0f} s): {verdict} [{elapsed:.1f} s]"
    if reporter is not None:
        reporter.write_line(line)
    else:
        print(line)
    if not ok and session.exitstatus == 0:
        session.exitstatus = 1
