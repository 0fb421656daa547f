import ast
import math
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_example_runs(capsys):
    # The README's one python block: identity vs. the phase gate S, whose
    # diamond distance is sqrt(2).
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```", handle.read(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], README, "exec"), {})
    lo, hi = ast.literal_eval(capsys.readouterr().out.splitlines()[-1])
    assert lo <= math.sqrt(2.0) <= hi
