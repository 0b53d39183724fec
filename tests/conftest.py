from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a failure neither comes and goes between runs nor replays an
# example from an earlier one.  Each test keeps its own max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
