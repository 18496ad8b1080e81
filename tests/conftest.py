from hypothesis import settings

# A larger run of the properties that take their example count from the
# profile (the whole-command property in test_cli.py):
#     pytest tests/test_cli.py::TestGeneratedDatasets --hypothesis-profile=ci
settings.register_profile("ci", max_examples=400)
