import pytest

# Acceptance criteria 5-7 share the module's full-pipeline fixtures, which
# take most of the suite's time. Marked here, by name, so that the
# acceptance module itself stays as written.
SLOW = {"test_criterion_5_learnability", "test_criterion_6_skew_direction",
        "test_criterion_7_frozen_encoder"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py" and item.name in SLOW:
            item.add_marker(pytest.mark.slow)
