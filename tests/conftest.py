"""Test-session hooks."""


def pytest_terminal_summary(terminalreporter):
    """Repeat the ``ACCEPTANCE n: ...`` verdict lines that the acceptance
    tests print, from the captured output of their passed and failed runs,
    so that they show in plain ``pytest -q`` output too, and after them the
    ``TIME n: ...`` lines of the timed criteria, whose seconds vary from run
    to run."""
    captured = [
        line
        for status in ("passed", "failed")
        for report in terminalreporter.stats.get(status, ())
        if report.when == "call"
        for line in report.capstdout.splitlines()
    ]
    for prefix, title in (("ACCEPTANCE ", "acceptance criteria"),
                          ("TIME ", "acceptance wall times")):
        lines = [line for line in captured if line.startswith(prefix)]
        if lines:
            terminalreporter.section(title)
            for line in sorted(lines, key=lambda line: int(line.split()[1].rstrip(":"))):
                terminalreporter.write_line(line)
