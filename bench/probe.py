"""One cold set-up of a workload, timed in a fresh interpreter.

usage: python3 bench/probe.py MODEL EVIDENCE FORMULA HORIZON

Times the import of condreach, parsing the model and evidence files and
building the weight vector, and prints the seconds taken.  run.py starts
this with PYTHONPATH naming the checkout's src directory.
"""

import sys
import time

t0 = time.perf_counter()
from condreach.ctmc import parse_ctmc, weight_from_property  # noqa: E402
from condreach.evidence import parse_evidence, parse_formula  # noqa: E402

model, evidence, formula, horizon = sys.argv[1:5]
with open(model, encoding="utf-8") as fh:
    ctmc = parse_ctmc(fh.read())
with open(evidence, encoding="utf-8") as fh:
    omega = parse_evidence(fh.read())
omega.bind_check(ctmc.alphabet)
target = ctmc.satisfying(parse_formula(formula))
weight_from_property(ctmc, target, float(horizon))
print(repr(time.perf_counter() - t0))
