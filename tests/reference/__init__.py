"""Straightforward reference implementations the kernels are checked against."""
