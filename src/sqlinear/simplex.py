"""No code: the library runs no LP, and the tests' exact LP is ``feasible_point``
in tests/lp_oracle.py. This module stays only because the benchmark tracer
(perfbench/tracer.py) imports every module in its ``LAYERS``, this one
included; it goes when the tracer drops that layer.
"""
