"""The package stays on the declared numpy floor (``numpy>=1.26``).

The TTM's view logic reads strides itself precisely so that it needs no
numpy 2 keyword; CI has one leg at ``numpy==1.26.*``. This test holds
every module under ``src/repro`` — the kernels, ``linalg`` and the
simulator included — to that floor on whatever numpy runs it, by scanning
the source for names, attributes and keywords that arrived after 1.26.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``np.<name>`` that numpy 1.26 does not have -> the release that added it
NEW_FUNCTIONS = {
    **dict.fromkeys(
        (
            # the array-API names of 2.0
            "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
            "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
            "concat", "permute_dims", "pow", "matrix_transpose", "vecdot",
            "isdtype", "unique_all", "unique_counts", "unique_inverse",
            "unique_values",
            # other 2.0 additions (``bool`` was re-added after 1.24
            # removed it)
            "bitwise_count", "trapezoid", "long", "ulong", "bool", "strings",
        ),
        "2.0",
    ),
    **dict.fromkeys(
        ("astype", "cumulative_sum", "cumulative_prod", "unstack"), "2.1"
    ),
    **dict.fromkeys(("matvec", "vecmat"), "2.2"),
}

#: array attributes or methods newer than 1.26, on any receiver
NEW_ATTRIBUTES = {"mT": "2.0", "device": "2.0", "to_device": "2.0"}

#: ``(function or method name, keyword)`` newer than 1.26; a ``device=``
#: keyword (2.0) is refused on every call
NEW_KEYWORDS = {
    ("reshape", "copy"): "2.1",
    ("reshape", "shape"): "2.1",
    ("asarray", "copy"): "2.0",
    ("sort", "stable"): "2.0",
    ("argsort", "stable"): "2.0",
    ("astype", "device"): "2.1",
    ("unique", "sorted"): "2.3",
}


def _numpy_aliases(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    names.add(alias.asname or "numpy")
    return names


def newer_than_floor(source: str) -> list[str]:
    """Every use in ``source`` of numpy API newer than 1.26, as
    ``"line N: what (version)"``."""
    tree = ast.parse(source)
    numpy = _numpy_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            on_numpy = isinstance(node.value, ast.Name) and (
                node.value.id in numpy
            )
            if on_numpy and node.attr in NEW_FUNCTIONS:
                found.append(
                    f"line {node.lineno}: np.{node.attr} "
                    f"({NEW_FUNCTIONS[node.attr]})"
                )
            elif not on_numpy and node.attr in NEW_ATTRIBUTES:
                found.append(
                    f"line {node.lineno}: .{node.attr} "
                    f"({NEW_ATTRIBUTES[node.attr]})"
                )
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            for keyword in node.keywords:
                version = NEW_KEYWORDS.get((name, keyword.arg))
                if version is None and keyword.arg == "device":
                    version = "2.0"
                if version is not None:
                    found.append(
                        f"line {node.lineno}: {name}({keyword.arg}=) "
                        f"({version})"
                    )
    return found


def test_package_needs_nothing_newer_than_numpy_1_26():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "tensor" / "kernels.py" in sources
    found = {
        str(path.relative_to(PACKAGE)): uses
        for path in sources
        if (uses := newer_than_floor(path.read_text()))
    }
    assert found == {}


@pytest.mark.parametrize(
    "snippet, what",
    [
        ("import numpy as np\nx.reshape(3, copy=False)", "reshape(copy=)"),
        ("import numpy as np\nnp.reshape(x, shape=(3,))", "reshape(shape=)"),
        ("import numpy as np\nnp.astype(x, np.float32)", "np.astype"),
        ("import numpy\nnumpy.vecdot(a, b)", "np.vecdot"),
        ("import numpy as np\ny = x.mT", ".mT"),
        ("import numpy as np\nnp.asarray(x, copy=False)", "asarray(copy=)"),
        ("import numpy as np\nnp.empty(3, device='cpu')", "empty(device=)"),
    ],
)
def test_the_scan_catches_what_it_is_for(snippet, what):
    (finding,) = newer_than_floor(snippet)
    assert what in finding


def test_the_scan_passes_what_1_26_has():
    source = (
        "import numpy as np\n"
        "y = x.astype(np.float32, copy=False)\n"  # the method is old
        "z = np.matmul(a, b, out=c).reshape(3, 4)\n"
        "w = np.ascontiguousarray(m.T, dtype=np.float64)\n"
    )
    assert newer_than_floor(source) == []
