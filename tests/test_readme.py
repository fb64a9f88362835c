"""The examples in README.md still run and print what the README shows."""

import contextlib
import io
import pathlib
import re
import shlex

from specta.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    """The first fenced block of the given language under a heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_the_values_it_shows():
    code = _block("Library", "python")
    shown = [line.split("# ", 1)[1].split(",")[0]
             for line in code.splitlines() if line.startswith("print(")]
    assert shown == ["False", "576/577"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == shown


def test_command_line_path_example_prints_the_values_it_shows(tmp_path, capsys):
    lines = _block("Command line", "sh").splitlines()
    printf = next(line for line in lines if line.startswith("printf 'path"))
    body, target = re.fullmatch(r"printf '(.*)' > (\S+)", printf).groups()
    (tmp_path / target).write_text(body.replace("\\n", "\n"))
    i = next(i for i, line in enumerate(lines)
             if line.startswith("specta path") and " separate " in line)
    shown = [lines[i + 1].removeprefix("# ->").strip(),
             lines[i + 2].removeprefix("#").strip()]
    assert shown == ["k: 4", "value: 576/577"]
    argv = shlex.split(lines[i])[1:]
    argv[1] = str(tmp_path / argv[1])
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown
