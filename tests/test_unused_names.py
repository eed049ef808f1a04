"""Every public name that src/rekbench defines is used somewhere.

No linter ships with the project, so the modules of src/rekbench are
parsed with ast.  A public function, class, method or property (no leading
underscore) is used when a file of src/, tests/ or perfbench/ reads it,
imports it or holds it as a whole string constant, or when the
pyproject.toml script entry names it.  A method or property counts only
when it is read as an attribute, so a local variable of the same name does
not hide it.  A string constant that is a whole dotted or module:function
path, such as the tracer's "SolverState.refresh" or the entry point
"rekbench.cli:entry", counts for each of its parts.

A private name (one leading underscore) that a module of src/rekbench
binds at module or class level, by def, class or assignment, must be read
in that module, as a name, an attribute or such a string.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rekbench"
SOURCES = sorted(
    path
    for folder in ("src/rekbench", "tests", "perfbench")
    for path in (ROOT / folder).glob("*.py")
)
_PATH = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")


def definitions(source):
    """(qualified name, name, is_method) of each public definition at module or class level."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def uses(source):
    """(names, attributes): the bare names source reads or imports, the attributes it reads."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _PATH.fullmatch(node.value):
                parts = re.split(r"[.:]", node.value)
                names.update(parts)
                attributes.update(parts)
    return names, attributes


def unused_public_names(modules, sources):
    """module.name of each public definition in modules (name -> source) that no source uses."""
    names, attributes = set(), set()
    for source in sources:
        read, read_attributes = uses(source)
        names |= read
        attributes |= read_attributes
    return sorted(
        f"{module}.{qualified}"
        for module, source in modules.items()
        for qualified, name, is_method in definitions(source)
        if name not in attributes and (is_method or name not in names)
    )


def private_definitions(source):
    """Each _name that source binds by def, class or assignment at module or class level."""
    tree = ast.parse(source)
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in tree.body + [item for cls in classes for item in cls.body]:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            names = []
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def unread_private_names(source):
    """The private definitions of source that source never reads."""
    names, attributes = uses(source)
    return sorted(set(private_definitions(source)) - names - attributes)


def script_entries():
    """The targets of pyproject.toml's [project.scripts], such as 'rekbench.cli:entry'."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'=\s*"([^"]+)"', section)


def test_checker_finds_unused_names():
    module = (
        "def used():\n    pass\n\n"
        "def unused():\n    pass\n\n"
        "class Box:\n"
        "    def read(self):\n        pass\n"
        "    def unread(self):\n        pass\n"
        "    def named(self):\n        pass\n"
    )
    user = "from m import used, Box\nunread = 1\nprint(unread)\nBox().read()\nSPAN = 'Box.named'\n"
    assert unused_public_names({"m": module}, [module, user]) == ["m.Box.unread", "m.unused"]


def test_checker_finds_unread_private_names():
    module = (
        "_LIMIT, _UNREAD = 3, 4\n_TABLE: dict = {}\n\n"
        "def _helper():\n    return _LIMIT\n\n"
        "def _orphan():\n    pass\n\n"
        "class Box:\n"
        "    _size = 2\n"
        "    def __init__(self):\n        self._fill(self._size)\n"
        "    def _fill(self, n):\n        return _helper()\n"
        "    def _spare(self):\n        pass\n"
    )
    assert unread_private_names(module) == ["_TABLE", "_UNREAD", "_orphan", "_spare"]


def test_every_private_name_is_read_in_its_module():
    unread = {
        path.stem: unread_private_names(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {module: names for module, names in unread.items() if names} == {}


def test_every_public_name_is_used():
    modules = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    # Each script entry joins the sources as a module holding one string.
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    sources += [repr(entry) for entry in script_entries()]
    assert script_entries() == ["rekbench.cli:entry"]
    assert unused_public_names(modules, sources) == []
