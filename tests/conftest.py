import pytest

from stopbp.model import load_model

M1_TEXT = """
{
  "version": 1,
  "types": ["a"],
  "offspring": [
    [{"counts": [0], "p": 0.7}, {"counts": [2], "p": 0.3}]
  ],
  "stopping_set": [[2]]
}
"""

M2_TEXT = """
{
  "version": 1,
  "types": ["a", "b"],
  "offspring": [
    [{"counts": [0, 0], "p": 0.5}, {"counts": [0, 1], "p": 0.3}, {"counts": [2, 0], "p": 0.2}],
    [{"counts": [0, 0], "p": 0.6}, {"counts": [1, 0], "p": 0.4}]
  ],
  "stopping_set": [[1, 0]]
}
"""

SUPERCRITICAL_TEXT = """
{
  "version": 1,
  "types": ["a"],
  "offspring": [
    [{"counts": [0], "p": 0.2}, {"counts": [2], "p": 0.8}]
  ],
  "stopping_set": [[2]]
}
"""

# three types, stopping states of totals 1 and 2; mean matrix with Perron
# root 0.628 and a positive square
K3_TEXT = """
{
  "version": 1,
  "types": ["a", "b", "c"],
  "offspring": [
    [{"counts": [0, 0, 0], "p": 0.5}, {"counts": [0, 1, 0], "p": 0.3},
     {"counts": [1, 0, 1], "p": 0.2}],
    [{"counts": [0, 0, 0], "p": 0.6}, {"counts": [0, 0, 1], "p": 0.25},
     {"counts": [2, 0, 0], "p": 0.15}],
    [{"counts": [0, 0, 0], "p": 0.55}, {"counts": [1, 0, 0], "p": 0.3},
     {"counts": [0, 1, 1], "p": 0.15}]
  ],
  "stopping_set": [[1, 0, 0], [0, 1, 1]]
}
"""

# three types whose laws have 3, 2 and 1 atoms of positive total, so a
# kernel row with an a and a c particle is built from its c particle, and
# type b has no zero atom; Perron root 0.659, aperiodic
K3_CHEAPEST_LAST_TEXT = """
{
  "version": 1,
  "types": ["a", "b", "c"],
  "offspring": [
    [{"counts": [0, 0, 0], "p": 0.5}, {"counts": [0, 1, 0], "p": 0.2},
     {"counts": [1, 0, 1], "p": 0.15}, {"counts": [0, 0, 2], "p": 0.15}],
    [{"counts": [1, 0, 0], "p": 0.6}, {"counts": [0, 0, 1], "p": 0.4}],
    [{"counts": [0, 0, 0], "p": 0.7}, {"counts": [0, 1, 0], "p": 0.3}]
  ],
  "stopping_set": [[1, 0, 0], [0, 1, 1]]
}
"""


@pytest.fixture(scope="session")
def m1_text():
    return M1_TEXT


@pytest.fixture(scope="session")
def m2_text():
    return M2_TEXT


@pytest.fixture(scope="session")
def m1():
    model, stopping = load_model(M1_TEXT)
    return model, stopping


@pytest.fixture(scope="session")
def m2():
    model, stopping = load_model(M2_TEXT)
    return model, stopping


@pytest.fixture(scope="session")
def supercritical():
    model, stopping = load_model(SUPERCRITICAL_TEXT)
    return model, stopping


@pytest.fixture(scope="session")
def k3():
    model, stopping = load_model(K3_TEXT)
    return model, stopping


@pytest.fixture(scope="session")
def k3_cheapest_last():
    model, stopping = load_model(K3_CHEAPEST_LAST_TEXT)
    return model, stopping
