import pytest

# the oracle's comparison helpers assert; show their operands on failure
pytest.register_assert_rewrite("reference")
