import pathlib
import re
import shlex

import cubenoise.cli  # imports every module of the package

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cube", "inequalities", "codes", "matroids", "corpus", "cli")


def readme_references() -> set[str]:
    """Every backticked `module.name` (or `module.name.attr`) in README.md
    whose module is one of the package's, outside fenced code blocks."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    ref = re.compile(rf"(?:{'|'.join(MODULES)})(?:\.\w+)+")
    return {m.group() for span in re.findall(r"`([^`]*)`", text) if (m := ref.match(span))}


def resolves(ref: str) -> bool:
    obj = cubenoise
    for name in ref.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_module_references_resolve():
    refs = readme_references()
    assert len(refs) >= 10  # the scan finds the references at all
    assert sorted(r for r in refs if not resolves(r)) == []


def test_readme_commands_run(capsys, rep2_file, k4_file):
    # every `cubenoise ...` line of the "Command line" block, with the
    # example files it names written by the fixtures
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for line in block.group(1).splitlines() if line.startswith("cubenoise ")]
    assert len(lines) >= 7
    files = {"rep2.code": rep2_file, "k4.graph": k4_file}
    for line in lines:
        argv = [files.get(a, a) for a in shlex.split(line)[1:]]
        code = cubenoise.cli.main(argv)
        assert code == 0, (line, capsys.readouterr().err)


def test_readme_names_every_sweep():
    # the Layout rows list the library's entry points by their bare names
    text = README.read_text(encoding="utf-8")
    modules = (cubenoise.inequalities, cubenoise.matroids)
    sweeps = {name for mod in modules for name in vars(mod) if name.endswith("_sweep") and name[0] != "_"}
    assert len(sweeps) == 9
    assert set(re.findall(r"`(\w+_sweep)`", text)) == sweeps
