"""The package namespace: ``__all__`` lists exactly the public names, each declared by the module that defines it."""

import inspect
import re
from pathlib import Path

import entclone
from entclone import bell, cloning, entanglement, errors, linalg, separability, states

MODULES = (bell, cloning, entanglement, errors, linalg, separability, states)


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(entclone).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(entclone.__all__) == sorted(public)
    assert len(entclone.__all__) == len(set(entclone.__all__))


def test_each_module_declares_the_functions_and_classes_it_defines():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, f"{module.__name__}.__all__ lists {name}"


def test_the_package_exports_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)), "a name is listed by two modules"
    assert sorted(entclone.__all__) == sorted(names)


def test_the_readme_library_section_lists_each_module_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    lines = re.findall(r"^- `(\w+)`: (.+)$", library, re.M)
    listed = {module: re.findall(r"`(\w+)`", names) for module, names in lines}
    assert listed == {module.__name__.rpartition(".")[2]: module.__all__ for module in MODULES}


def test_every_eigensolve_goes_through_the_one_entry_point():
    # linalg._solve is the package's one eigensolve and NoConvergenceError its one failure: no module calls NumPy's
    # own eigensolvers or names the error they raise
    pattern = re.compile(r"LinAlgError|np\.linalg\.eig|linalg\.eig\w*\(")
    found = [f"{path.name}:{number}: {line.strip()}" for path in sorted(Path(entclone.__file__).parent.rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert found == []
