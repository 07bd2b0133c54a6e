"""Unary code families with uniform Hamming geometry, plus a one-pass
integer-trained corner-classification network built on them.

Import each name from its module (`from unarynet.cc4 import infer`), so a
process that needs one module imports only that one.
"""
