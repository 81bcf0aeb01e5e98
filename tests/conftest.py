"""Suite-wide hooks: the acceptance verdicts go into the terminal summary.

``test_acceptance.emit_and_assert`` records each CRITERION line as a
``verdict`` user property of its test. Pytest's default output capture
hides a line written while a test runs, so the lines are written here,
after the last test, in criterion order.
"""


def pytest_terminal_summary(terminalreporter):
    reports = [r for rs in terminalreporter.stats.values() for r in rs]
    lines = sorted(
        value for r in reports if getattr(r, "when", "") == "call"
        for name, value in r.user_properties if name == "verdict"
    )
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)
