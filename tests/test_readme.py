import ast
import math
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

#: The value each README python block brackets, in order: the diamond
#: distance sqrt(2) of identity vs. the phase gate S, and the value 5/3 of
#: the 2x2 matrix game.
EXPECTED = (math.sqrt(2.0), 5.0 / 3.0)


def test_library_example_runs(capsys):
    # Every python block runs and prints, last, a pair (lo, hi) around its value.
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```", handle.read(), re.M | re.S)
    for block, want in zip(blocks, EXPECTED, strict=True):
        exec(compile(block, README, "exec"), {})
        lo, hi = ast.literal_eval(capsys.readouterr().out.splitlines()[-1])
        assert lo <= want <= hi
