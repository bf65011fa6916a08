import pytest

from ioltstest import parse_model

M1_TEXT = """\
states: s0 s1
initial: s0
inputs: a
outputs: x
transitions:
s0 a s1
s1 x s0
"""

# M1 plus an unspecified output at the initial state
M3_TEXT = """\
states: q0 q1
initial: q0
inputs: a
outputs: x
transitions:
q0 a q1
q1 x q0
q0 x q0
"""

# single chaos-free state, nothing implemented
M4_TEXT = """\
states: q0
initial: q0
inputs: a
outputs: x
transitions:
"""

# four-state spec whose multigraph reproduces the published aabbx node path
FOUR_STATE_TEXT = """\
states: s0 s1 s2 s3
initial: s0
inputs: a b
outputs: x
transitions:
s0 a s1
s1 a s3
s3 b s0
s0 b s3
s1 x s2
s2 a s1
"""

# no outputs: quiescence completion puts delta at every state
INPUT_ONLY_TEXT = """\
states: s0 s1 s2
initial: s0
inputs: a b
outputs:
transitions:
s0 a s1
s0 b s2
s1 a s2
s1 b s0
s2 a s0
s2 b s1
"""


@pytest.fixture
def m1():
    return parse_model(M1_TEXT)


@pytest.fixture
def m3():
    return parse_model(M3_TEXT)


@pytest.fixture
def m4():
    return parse_model(M4_TEXT)


@pytest.fixture
def four_state():
    return parse_model(FOUR_STATE_TEXT)
