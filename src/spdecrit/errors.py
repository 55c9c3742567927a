"""The errors the CLI reports as bad input, in a module of their own so
that catching them imports neither the parser nor the expansion."""


class SpecError(Exception):
    """Base class for everything parse_spec can raise."""


class ExpansionError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class InputError(ValueError):
    """Input a command refuses; its text starts with the flags that gave it."""


def check_budget(flags: str, work: int, budget: int, what: str) -> None:
    """Refuse work over its budget, naming the flags that set it and what the work is."""
    if work > budget:
        raise InputError(f"{flags}: {what}, over the budget of {budget}")
