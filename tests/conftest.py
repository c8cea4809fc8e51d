try:
    from hypothesis import settings
except ImportError:  # hypothesis is an optional test extra
    pass
else:
    # fixed examples and no time limit, so runs are reproducible and the
    # property tests take a bounded share of the suite
    settings.register_profile(
        "finpart", derandomize=True, deadline=None, max_examples=150,
        database=None,
    )
    settings.load_profile("finpart")
