"""CLI surface of the compiled tier: ``run`` decides through closures
with no flag, and refuses the retired ``--compiled``."""

import pytest

from repro.__main__ import main


def test_compiled_flag_is_gone(capsys):
    """``--compiled`` is gone, and so are the arming flags ``--arm``
    replaced: each exits 2 naming the flag."""
    argvs = [["run", "--name", "HashSet", "--compiled"]]
    for flag in ("--stable", "--prover", "--abduce"):
        argvs += [["run", "--name", "HashSet", flag],
                  ["stability", "--name", "HashSet", flag],
                  ["bench", "--suite", "runtime", flag]]
    for argv in argvs:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        assert argv[-1] in capsys.readouterr().err, argv


def test_run_output_matches_the_interpreter(capsys, interpreted):
    """The CLI's report lines agree with an all-interpreted run:
    commits/aborts/ops are the decision-visible fields."""
    argv = ["run", "--name", "ArrayList", "--profile", "write-heavy",
            "--distribution", "hot-key", "--txns", "6", "--ops", "5",
            "--preload", "12", "--seed", "7"]
    assert main(argv) == 0
    compiled = capsys.readouterr().out
    with interpreted():
        assert main(argv) == 0
    reference = capsys.readouterr().out

    def decisions(text):
        """Workload-report rows minus the ops/s column (the only
        timing-dependent field; everything else is decisions)."""
        rows = []
        for line in text.splitlines():
            cells = [c.strip() for c in line.split("|")]
            if cells[0] == "ArrayList" and len(cells) == 11:
                del cells[9]
                rows.append(cells)
        return rows

    assert decisions(compiled) == decisions(reference)
    assert decisions(compiled)
    assert "yes" in compiled  # the serializable column
