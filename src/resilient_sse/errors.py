"""The library's one exception type.

There are two kinds of error, matching the CLI's exit codes.  Validation
problems (bad shapes, out-of-range parameters, input the package cannot
represent) raise plain ValueError: exit 1.  Everything that can only be
discovered numerically raises EstimationError: exit 2.  Its message names
the failure.
"""


class EstimationError(Exception):
    """A numerical or solver failure, named by its message."""
