"""README.md states what the program does: its Quick start outputs are
excerpts of the real ones, and its Library use snippet's stated values
hold."""

import ast
import pathlib
import re

import lagrforge as lf
from lagrforge import cli

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text(encoding="utf-8")


def _block_after(marker: str) -> list:
    """The lines of the first fenced block after `marker` in the README."""
    start = README.index(marker)
    match = re.compile(r"```[a-z]*\n(.*?)```", re.S).search(README, start)
    return match.group(1).splitlines()


def _chunks(lines: list) -> list:
    """The runs of `lines` between lines that are `...`."""
    chunks = [[]]
    for line in lines:
        if line == "...":
            chunks.append([])
        else:
            chunks[-1].append(line)
    return chunks


def _is_excerpt(chunks: list, out: list) -> bool:
    """Whether each chunk is a contiguous run of `out`, in order."""
    at = 0
    for chunk in chunks:
        for i in range(at, len(out) - len(chunk) + 1):
            if out[i:i + len(chunk)] == chunk:
                at = i + len(chunk)
                break
        else:
            return False
    return True


def test_quick_start_outputs_are_excerpts_of_the_real_ones(capsys):
    for command, marker in ((["derive", "so2"],
                             "`lagrforge derive so2` prints"),
                            (["example", "so2"],
                             "`lagrforge example so2` continues")):
        assert cli.run(command) == 0
        out = capsys.readouterr().out.splitlines()
        chunks = _chunks(_block_after(marker))
        assert all(chunks) and _is_excerpt(chunks, out), command


def test_library_use_states_true_values():
    lines = _block_after("## Library use")
    stated = {}
    for line in lines:
        code, _, comment = line.partition("#")
        if comment:
            stated[code.strip()] = comment.strip()
    setup = "\n".join(line for line in lines
                      if line.startswith(("import ", "lie = ", "family = ")))
    names = {}
    exec(setup, names)
    family = names["family"]

    assert family.dimension == \
        ast.literal_eval(stated["family.dimension"])
    grid = [[v.value for v in row] for row in lf.forward_check(family)]
    assert stated["lf.forward_check(family)"] == \
        str(grid).replace("'", "")
    assert lf.converse_check(family, {"a1": 0, "a2": 1}).status == \
        ast.literal_eval(stated['lf.converse_check(family, '
                                '{"a1": 0, "a2": 1}).status'])
    # "the L_1 shown above", in the example's output
    assert stated["str(family.lagrangians[0])"] == "the L_1 shown above"
    shown = [line.strip() for line in
             _block_after("`lagrforge example so2` continues")
             if line.strip().startswith("L_1 = ")]
    assert shown == [f"L_1 = {family.lagrangians[0]}"]
