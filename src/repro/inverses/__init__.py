"""Semantic inverse operations (Sections 1.3, 2.6, 3.3, 4.2; Table 5.10)."""

from .catalog import (Arg, ArgKind, Guard, InverseCall, InverseSpec,
                      INVERSES, NoInverse, inverse_for, inverses_for)
from .verifier import (InverseCheckResult, InverseCounterexample,
                       InverseError, InverseTestingMethod, apply_inverse,
                       check_all_inverses, check_inverse,
                       generate_inverse_methods)

__all__ = [
    "Arg", "ArgKind", "Guard", "InverseCall", "InverseSpec", "INVERSES",
    "NoInverse", "inverse_for", "inverses_for",
    "InverseCheckResult", "InverseCounterexample", "InverseError",
    "InverseTestingMethod", "apply_inverse", "check_all_inverses",
    "check_inverse", "generate_inverse_methods",
]
