"""The library keeps only what the CLI or a named consumer reaches.

A fixed corpus of argv goes through ``cli.main`` in this process under
``sys.setprofile``, on a copy of palfkit imported with the profiler already
on, so calls made while the modules load count as well.  A function or
method is *unreached* when its ``__module__`` is a palfkit module and its
code object never ran.  Methods that ``dataclass`` generates (compiled from
a string, not read from a source file) are skipped, and decorated functions
(``contextmanager``) are unwrapped.

The unreached set must equal the keys of :data:`CONSUMERS`.  Each entry
names exactly one consumer, optionally followed by ``": detail"``:

* ``acceptance``: imported or called by ``tests/test_acceptance.py``;
* ``tracer``: listed in ``perfbench/tracer.py:TARGETS``;
* ``doctest``: used in a ``src`` doctest or a README example;
* ``pin``: needed for a pinned output;
* ``item N``: the ROADMAP item that will consume it.

Other tests are not a consumer.  So a new function that nothing reaches
fails here, and so does an entry whose name the corpus now reaches or that
no longer exists.  To keep an unreached name, add it with its consumer.
"""

import ast
import contextlib
import importlib
import inspect
import io
import re
import sys
from pathlib import Path

import pytest

from conftest import alexander_pool_texts, palf_pool_texts

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"

CONSUMERS = {
    # ring arithmetic of the Fox fundamental-identity and product-rule suites
    "groupring.GroupRingElement.__init__": "acceptance",
    "groupring.GroupRingElement.zero": "acceptance",
    "groupring.GroupRingElement.one": "acceptance",
    "groupring.GroupRingElement.from_word": "acceptance",
    "groupring.GroupRingElement._check": "acceptance",
    "groupring.GroupRingElement.__eq__": "acceptance",
    "groupring.GroupRingElement.__add__": "acceptance",
    "groupring.GroupRingElement.__neg__": "acceptance: a - b is a + (-b)",
    "groupring.GroupRingElement.__sub__": "acceptance",
    "groupring.GroupRingElement.__mul__": "acceptance",
    "groupring.GroupRingElement.__rmul__": "acceptance: Word * element",
    "groupring.GroupRingElement.__repr__": "doctest: fox_derivative",
    "words.FreeGroup.identity": "acceptance: GroupRingElement.one",
    "words.Word.__repr__": "doctest: Word",
    "words.are_conjugate": "tracer",
    # the Smith normal form suite checks U m V = D entry by entry
    "intmatrix.IntMatrix.__eq__": "acceptance",
    "intmatrix.IntMatrix.__getitem__": "acceptance",
    "intmatrix.IntMatrix.__mul__": "acceptance",
    "intmatrix.det": "tracer",
    "intmatrix.kernel_rank": "tracer",
    "laurent.LaurentPoly.zero": "doctest: knots.maximal_minors",
    "laurent.LaurentPoly.one": "doctest: knots.maximal_minors",
    "laurent.LaurentPoly.t": "doctest: LaurentPoly",
    "laurent.LaurentPoly.__add__": "doctest: LaurentPoly",
    "laurent.LaurentPoly.__sub__": "doctest: LaurentPoly, 1 - t",
    "laurent.LaurentPoly.__rsub__": "doctest: LaurentPoly, 1 - t",
    "laurent.LaurentPoly.__pow__": "doctest: LaurentPoly",
    "laurent.LaurentPoly.__repr__": "doctest: groupring.abelianize",
    "knots.family_invariants": "acceptance",
    "lefschetz.boundary_is_homology_sphere": "tracer",
    "lefschetz.family_twists": "tracer",
    "presentation.Presentation.__eq__": "acceptance: parser round-trips",
    "presentation.Presentation.__str__": "acceptance: parser round-trips",
    "presentation.Presentation.abelianization_invariants": "acceptance",
    # every H1 = 0 input of the CLI ends Trivial by eliminations alone
    "presentation._shorten_by_product": "pin: test_tietze_outputs_pinned",
    # the grammar names no half twist, so no CLI input reaches the checking constructor
    "surface.half_twist": "acceptance: the lantern relation",
    "surface.MappingClass.__init__": "acceptance: half_twist",
    "surface.MappingClass.__eq__": "acceptance: twists commute",
    "surface.twist_of_image": "tracer",
}

_KINDS = re.compile(r"(acceptance|tracer|doctest|pin|item (\d+))(: .+)?")


def _corpus(tmp: Path) -> list[list[str]]:
    """The argv the gate runs; files it needs are written under ``tmp``."""

    def palf_file(name: str, text: str) -> str:
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    argvs = [["palf", "--input", palf_file(f"pool{i}.palf", text + "\n"), "--json"]
             for i, text in enumerate(palf_pool_texts(1)[:60])]
    argvs += [["alexander", "--presentation", text] for text in alexander_pool_texts(1)[:60]]
    argvs += [["family", "--n-max", "6"], ["family", "--n-max", "3", "--json"]]
    for name in ("family3", "grid_h1_z", "runs_s07", "images_s05", "shared_s04"):
        path = str(DATA / f"{name}.palf")
        argvs += [["palf", "--input", path], ["palf", "--input", path, "--json"]]
    for surface, expr in (
        ("S(0,4)", "(Tg Tb)^2"),
        ("S(0,8)", "(T std{2,3,4})^-2 T std{1,2,3,4,5,6,7}"),
        ("S(0,5)", "T apply(T std{3,4} (T std{1,2})^-2, std{2,3}) T std{1,2,3}"),
        ("S(0,4)", "(Tg Tb)^0"),
    ):
        argvs.append(["twist", "--surface", surface, "--expr", expr])
    argvs.append(["casson", "--delta", "t^-1 - 1 + t", "--m", "2"])
    # the CI "Usage and help" step: usage, help and parse errors
    presentation = "x y | (x y)^2 x (x y)^-2 y^-1"
    argvs += [
        [], ["nosuch"], ["palf", "--help"],
        ["palf", "--input", palf_file("cr.palf", "S(0,4);\rT std{")],
        ["alexander", "--presentation", "x |\rx^"],
        ["palf", "--input", palf_file("u2028.palf", "S(0,4);\u2028T std{1};\x0cT std{")],
        ["palf", "--input", palf_file("nel.palf", "S(0,4);\x85T std{1}; T apply(Tg, std{1,3})")],
        ["alexander", "--presentation", "x | x^" + "9" * 5000],
        ["alexander", "--presentation", "x y x | x"],
        ["palf", "--input", palf_file("flags.palf", "S(0,4); T std{1,3/ou}")],
        ["palf", "--input", palf_file("noflags.palf", "S(0,4); T std{1,3}")],
        ["twist", "--surface", "S(0,4)", "--expr", "T apply((Tg Tb)^800, std{1,3/o})"],
        ["alexander", "--presentation", "x y | x^50000 y^-50000"],
        ["alexander", "--presentation", presentation],
        ["alexander", f"--presentation={presentation}"],
        ["alexander", "--pres", presentation],
    ]
    return argvs


def _palfkit_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "palfkit"}


def _trace(argvs: list[list[str]]) -> tuple[dict, set]:
    """Run ``argvs`` through ``cli.main`` of a palfkit imported afresh under
    the profiler; return that copy's modules and the code objects that ran.
    The modules imported before are put back afterwards."""
    saved = _palfkit_modules()
    for name in saved:
        del sys.modules[name]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        cli = importlib.import_module("palfkit.cli")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
    finally:
        sys.setprofile(previous)
        fresh = _palfkit_modules()
        for name in fresh:
            del sys.modules[name]
        sys.modules.update(saved)
    return fresh, called


def _functions(modules: dict) -> dict:
    """``{"module.qualname": code}`` for every function and method whose
    ``__module__`` is one of ``modules``, methods generated from a string
    skipped and decorated functions unwrapped."""
    out = {}
    for module in modules.values():
        prefix = module.__name__.partition(".")[2] or module.__name__
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                parts = (member.fget, member.fset, member.fdel) if isinstance(member, property) else (member,)
                for fn in parts:
                    fn = inspect.unwrap(fn) if inspect.isfunction(fn) else None
                    if fn is None or fn.__module__ != module.__name__ or fn.__code__.co_filename.startswith("<"):
                        continue
                    out[f"{prefix}.{fn.__qualname__}"] = fn.__code__
    return out


def _audit(functions: dict, called: set, allowed: dict) -> list[str]:
    """What the gate reports: unreached names with no consumer, and entries
    whose name is reached or gone."""
    unreached = {name for name, code in functions.items() if code not in called}
    problems = [f"{name}: unreached, and no consumer is named" for name in sorted(unreached - allowed.keys())]
    for name in sorted(allowed.keys() - unreached):
        problems.append(f"{name}: listed, but {'reached' if name in functions else 'no longer exists'}")
    return problems


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    modules, called = _trace(_corpus(tmp_path_factory.mktemp("corpus")))
    return modules, _functions(modules), called


def test_unreached_names_are_the_listed_ones(traced):
    _, functions, called = traced
    assert _audit(functions, called, CONSUMERS) == []


def test_every_entry_names_one_consumer():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS")
    traced_names = {f"{module}.{name}" for module, names in targets.items() for name in names}
    items = set(re.findall(r"^### (\d+)\.", (ROOT / "ROADMAP.md").read_text(encoding="utf-8"), re.M))
    for name, consumer in CONSUMERS.items():
        kind = _KINDS.fullmatch(consumer)
        assert kind, f"{name}: {consumer!r} names none of the five consumer kinds"
        if kind[1] == "tracer":
            assert name in traced_names, f"{name} is not in perfbench/tracer.py:TARGETS"
        if kind[2]:
            assert kind[2] in items, f"{name}: ROADMAP has no item {kind[2]}"


def test_gate_reports_a_function_nothing_calls(traced, monkeypatch):
    modules, _, called = traced

    def orphan():
        pass

    words = modules["palfkit.words"]
    orphan.__module__, orphan.__qualname__ = words.__name__, "orphan"
    monkeypatch.setattr(words, "orphan", orphan, raising=False)
    assert "words.orphan: unreached, and no consumer is named" in _audit(_functions(modules), called, CONSUMERS)


def test_gate_reports_entries_that_are_reached_or_gone(traced):
    _, functions, called = traced
    allowed = dict(CONSUMERS, **{"cli.main": "item 23", "words.Word.__iter__": "item 23"})
    problems = _audit(functions, called, allowed)
    assert "cli.main: listed, but reached" in problems
    assert "words.Word.__iter__: listed, but no longer exists" in problems
