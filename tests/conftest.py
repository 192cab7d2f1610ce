import os

import hypothesis

hypothesis.settings.register_profile(
    "fraylab", max_examples=25, deadline=None
)
# more examples of the property tests, for the CI run of the kernel and
# series tests: HYPOTHESIS_PROFILE=ci python -m pytest ...
hypothesis.settings.register_profile(
    "ci", max_examples=300, deadline=None
)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fraylab"))
