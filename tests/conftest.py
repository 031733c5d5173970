"""Hypothesis profiles of the test suite.

The collar oracle's edge harness, the tests of ``test_cylinder.py`` that
draw ``EDGE_EXAMPLES`` examples, runs 80 examples a test in tier-1 and
2,000 under the "collar-edge" profile:

    pytest --hypothesis-profile=collar-edge tests/test_cylinder.py \\
        -k "slice_of_the_batch or translate_order"
"""

from hypothesis import settings

settings.register_profile("collar-edge", max_examples=2000)
