"""Hypothesis profiles of the test suite.

The collar oracle's edge harness, the tests of ``test_cylinder.py`` that
draw ``EDGE_EXAMPLES`` examples, runs 80 examples a test in tier-1 and
2,000 under the "collar-edge" profile:

    pytest --hypothesis-profile=collar-edge tests/test_cylinder.py \\
        -k "slice_of_the_batch or translate_order"

The torus oracle's edge harness, the test of ``test_flat_torus.py`` that
draws its ``EDGE_EXAMPLES``, runs 100 examples in tier-1 and 2,000 under
the "torus-edge" profile:

    pytest --hypothesis-profile=torus-edge tests/test_flat_torus.py \\
        -k edges_of_its_domain
"""

from hypothesis import settings

settings.register_profile("collar-edge", max_examples=2000)
settings.register_profile("torus-edge", max_examples=2000)
