"""The acceptance verdicts, repeated in the terminal summary.

Each acceptance criterion prints one ``CRITERION n (...): PASS/FAIL`` line.
Under pytest's default output capture those lines are kept only in the test
reports; this hook collects them from there and prints them after the run.
"""


def pytest_terminal_summary(terminalreporter):
    lines = [line
             for reports in terminalreporter.stats.values()
             for report in reports
             if getattr(report, "when", None) == "call"
             for line in report.capstdout.splitlines()
             if line.startswith("CRITERION ")]
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in sorted(lines, key=lambda line: int(line.split()[1])):
            terminalreporter.write_line(line)
