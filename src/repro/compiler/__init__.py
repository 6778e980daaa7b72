"""Compilation: the front end every entry point shares, the stepper's
prepass, and the [Ste78] CPS conversion."""

from .cps import CpsConverter, CpsError, cps_expression, cps_program

__all__ = ["CpsConverter", "CpsError", "cps_expression", "cps_program"]
