"""Pointwise oracles the tests check the closed forms against."""


def kernel_value(y: float, e: float, w: float) -> float:
    """Kernel K(y, e) = (w - 1)*y*e + min(y, e) of the edge weight w."""
    return (w - 1.0) * y * e + min(y, e)
