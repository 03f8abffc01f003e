"""Guard of the package's public surface: every public module-level
function, class, method and property in ``src/thermovisc`` has a reader
outside the tests -- it is named in the code of ``src/`` or ``perfbench/``,
listed in an ``__all__``, or named in code in ``README.md``.

Names are matched as the code uses them.  A module-level name counts when
it is referenced (a name, an attribute, an import or a string such as the
benchmark tracer's lookups); a method or property counts when it is read as
an attribute of something other than an imported third-party module (so
``np.zeros`` does not keep a ``zeros`` method), and a method that shares
its name with a data attribute (a dataclass field or ``self.x = ...``)
counts only where it is called.  A reference inside the body of a public
callable that has no reader itself does not count, so code reachable only
from dead code is reported with it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thermovisc"
IDENT = re.compile(r"[A-Za-z_]\w*")


def _public(name):
    return not name.startswith("_")


def _definitions(tree, module):
    """{qualified name: (kind, bare name)} of the public surface of one module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            out[f"{module}.{node.name}"] = ("global", node.name)
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    decorators = {ast.unparse(dec) for dec in item.decorator_list}
                    kind = "property" if decorators & {"property", "cached_property"} else "method"
                    out[f"{module}.{node.name}.{item.name}"] = (kind, item.name)
    return out


def _data_attributes(tree):
    """Names of dataclass fields and of attributes assigned as ``self.x``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names |= {item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return names


def _uses(tree, module):
    """(owner, kind, name) of every reference in one module; owner is the
    qualified public function, class or method whose code holds it, or None
    for module-level code and private functions."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []

    def add(code, owner):
        for node in ast.walk(code):
            if isinstance(node, ast.Name):
                found.append((owner, "name", node.id))
            elif isinstance(node, ast.Attribute):
                if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                    found.append((owner, "call" if id(node) in calls else "attr", node.attr))
            elif isinstance(node, ast.alias):
                found.append((owner, "name", (node.asname or node.name).split(".")[-1]))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if IDENT.fullmatch(node.value):
                    found.append((owner, "name", node.value))

    for node in tree.body:
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name)):
            add(node, None)
        elif isinstance(node, ast.FunctionDef):
            add(node, f"{module}.{node.name}")
        else:
            cls = f"{module}.{node.name}"
            for item in node.bases + node.decorator_list + node.body:
                public = isinstance(item, ast.FunctionDef) and _public(item.name)
                add(item, f"{cls}.{item.name}" if public else cls)
    return found


def _readme_names():
    """(every identifier, the members) named in the README's code: fenced
    blocks and inline spans.  A member is written ``.name``, ``name(`` or
    as a span of its own, so a config key that shares a method's name
    (``isothermal = false``) does not name the method."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    code = " ".join(blocks + spans)
    members = set(re.findall(r"\.([A-Za-z_]\w*)", code) + re.findall(r"([A-Za-z_]\w*)\(", code))
    return set(IDENT.findall(code)), members | {s for s in spans if IDENT.fullmatch(s)}


def unread_public_names():
    """Sorted qualified names of the public callables nothing outside the tests reads."""
    defs, data, uses, exported = {}, set(), [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.update(_definitions(tree, path.stem))
        data |= _data_attributes(tree)
        uses += _uses(tree, path.stem)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        uses += [(None, kind, name)
                 for _, kind, name in _uses(ast.parse(path.read_text(encoding="utf-8")), "")]
    readme, readme_members = _readme_names()

    def read(kind, name, live):
        if name in exported or name in (readme if kind == "global" else readme_members):
            return True
        ok = {"global": {"name", "attr", "call"}, "property": {"attr", "call"},
              "method": {"call"} if name in data else {"attr", "call"}}[kind]
        return any(owner in live and how in ok and used == name
                   for owner, how, used in uses)

    # a reference counts only from code that is read itself; iterate to the fixed point
    dead = set()
    while True:
        live = (set(defs) - dead) | {None}
        now = {q for q, (kind, name) in defs.items() if not read(kind, name, live)}
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_public_name_has_a_reader_outside_the_tests():
    unread = unread_public_names()
    assert not unread, ("public names read only by tests (delete them, or move test "
                        "builders to tests/helpers.py): " + ", ".join(unread))
