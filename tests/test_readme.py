"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

from gradweil.chernweil import is_exact
from gradweil.forms import render_form

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The first python block under the "Library quick start" heading."""
    text = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S)[1]


def test_library_quick_start_prints_its_commented_outputs():
    source = quick_start()
    # each print's comment opens with what it prints; "(primitive P)" names
    # the primitive that the exactness answer carries
    comments = [line.split("#", 1)[1].strip() for line in source.splitlines()
                if line.startswith("print(")]
    expected = [comment.split()[0] for comment in comments]
    assert expected == ["-3*eps1^eps2", "exact"]
    primitive = re.search(r"\(primitive (\S+)\)", comments[1])[1]
    assert primitive == "3*eps2"
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == expected
    result = is_exact(namespace["a"], namespace["s"].form)
    assert render_form(result.primitive) == primitive
