"""Exception types shared across the simulator modules."""


class NotHermitianError(ValueError):
    """Matrix handed to the log-det kernel is not Hermitian within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization failed: the matrix is not positive definite."""


class EmptyUserSetError(ValueError):
    """A multi-user aggregate was requested for zero users."""


class EmptyPathError(ValueError):
    """A path aggregate was requested for zero hops."""


class EmptyNetworkError(ValueError):
    """A network aggregate was requested for zero links."""


class InfeasibleLinkError(ValueError):
    """Some link has zero capacity at the candidate power allocation."""


class NoFeasiblePointError(RuntimeError):
    """The solver never encountered an allocation satisfying the constraints."""


class AllSamplesOutageError(RuntimeError):
    """Every Monte-Carlo draw on a link was an outage; no metrics to average."""

    def __init__(self, link_id: str):
        super().__init__(f"all samples were outages on link {link_id!r}")
        self.link_id = link_id


class ScenarioParseError(ValueError):
    """The scenario document is not well-formed."""


class ScenarioValidationError(ValueError):
    """A scenario field violates its constraint; carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
