"""The errors the CLI reports as bad input, in a module of their own so
that catching them imports neither the parser nor the expansion."""


class SpecError(Exception):
    """Base class for everything parse_spec can raise."""


class ExpansionError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
