from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# More drawn programs per property: `pytest --hypothesis-profile deep`.
settings.register_profile("deep", parent=settings.get_profile("suite"), max_examples=500)
settings.load_profile("suite")
