from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("missmix", derandomize=True, deadline=None,
                          max_examples=200, database=None)
# A long random run on demand, e.g. of the reader properties:
#   pytest --hypothesis-profile=long tests/test_data.py -k oracle
settings.register_profile("long", derandomize=False, deadline=None,
                          max_examples=20_000, database=None)
settings.load_profile("missmix")
