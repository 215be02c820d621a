"""Hypothesis settings shared by every test module.

With ``CI`` set, the ``ci`` profile is loaded: it changes only ``print_blob``,
so a failing property prints the blob that reproduces it
(``@reproduce_failure``). Example counts and deadlines stay as each test sets
them.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
