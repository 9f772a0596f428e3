"""Suite-wide command-line options."""


def pytest_addoption(parser):
    parser.addoption(
        "--wide-sweep",
        action="store_true",
        default=False,
        help="also run the slow, wide randomized sweeps (CI runs them)",
    )
