"""Test-session hooks."""


def pytest_terminal_summary(terminalreporter):
    """Repeat the ``ACCEPTANCE n: ...`` verdict lines that the acceptance
    tests print, from the captured output of their passed and failed runs,
    so that they show in plain ``pytest -q`` output too."""
    lines = [
        line
        for status in ("passed", "failed")
        for report in terminalreporter.stats.get(status, ())
        if report.when == "call"
        for line in report.capstdout.splitlines()
        if line.startswith("ACCEPTANCE ")
    ]
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines, key=lambda line: int(line.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)
