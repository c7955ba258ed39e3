"""Exception types shared across the package."""


class NonConvexInput(ValueError):
    """Input Hamiltonian fails the sampled convexity check."""


class NoDeltaFound(RuntimeError):
    """Bump half-width search hit its floor without satisfying the acceptance chain."""


class DomainError(ValueError):
    """Argument outside the domain of a constructed function."""


class HypothesisViolation(ValueError):
    """Structural hypotheses on (G, p1, p2) are not satisfied."""


class TuningFailure(RuntimeError):
    """Profile mix tuning could not bracket the target."""


class Blowup(RuntimeError):
    """Cell ODE trajectory left the guard region."""


class BracketFailure(RuntimeError):
    """No sign change found inside the search guard."""


class SolveFailure(RuntimeError):
    """Cell solves that did not converge. ``failures`` lists (theta, reason);
    ``solutions`` holds the batch's results, None at the failed thetas."""

    def __init__(self, failures, solutions):
        super().__init__("cell solve failed at "
                         + "; ".join(f"theta={t!r} ({why})" for t, why in failures))
        self.failures = failures
        self.solutions = solutions


class Instability(RuntimeError):
    """Parabolic run developed grid oscillations beyond the monitor threshold."""


class NoPositiveEigenvector(RuntimeError):
    """Principal eigenpair failed the positivity check."""


class OutOfBox(ValueError):
    """Momentum vector outside the validity box of the separable formula."""


class ConvexityViolation(AssertionError):
    """Midpoint convexity probe found a witness pair."""


class CertificationFailure(RuntimeError):
    """Scan exhausted without producing a certificate."""
