from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("missmix", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("missmix")
