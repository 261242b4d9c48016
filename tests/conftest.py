"""One hypothesis profile for the whole suite.

Hypothesis fails an example that runs longer than its 200 ms default
deadline.  That measures the load on the host, not the code: exact
elimination on a drawn matrix can take longer on a busy machine.  So no
test has a deadline; each still sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("ldga", deadline=None)
settings.load_profile("ldga")
